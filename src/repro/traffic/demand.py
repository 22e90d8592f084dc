"""The three-peak traffic-demand model.

Demand from region i to region j at time t is

    rate(i, j, t) = scale_ij x shape(local hour of i, local hour of j)
                    x weekly(t) x noise_ij(t) x surge_ij(t) + floor

where `shape` is a sum of three Gaussians at the `PEAK_HOURS`
(meetings happen in the *participants'* working hours, so we use the mean
of the source and destination bumps: cross-continent pairs get demand when
either side is awake, damped when the other sleeps), `weekly` drops
weekends, `noise` is slow lognormal jitter and `surge` models meeting
blocks starting (a several-fold jump within five minutes).

Everything is a pure function of (seed, pair, t): no state, so any window
of any day can be sampled directly — exactly like the underlay processes.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.sim.rng import RngStreams, hash_noise, hash_uniform
from repro.underlay.regions import Region, RegionPair

SECONDS_PER_DAY = 86400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

# The calibration of the three-peak model (§2.3).  These values
# reproduce the paper's measurements: a three-peak weekday pattern,
# aggregate peak-to-trough >= 100x, per-pair >= 200x, and sharp
# five-minute surges when peaks ramp up.

#: Local hours of the three daily peaks (work morning, work afternoon,
#: evening classes/meetings) — §5.1's observation.
PEAK_HOURS = (10.0, 16.0, 20.0)
#: Relative amplitude of each peak.
PEAK_AMPS = (1.0, 0.9, 0.75)
#: Gaussian width of each peak, hours.
PEAK_WIDTH_H = 1.35
#: Overnight floor as a fraction of the pair's peak demand.  Small, so
#: peak/trough ratios are in the hundreds.
FLOOR_FRACTION = 0.0022
#: 'Someone is awake but idle' offset added to each side's diurnal
#: shape before coupling; controls how dead the global night is.
SHAPE_OFFSET = 0.003
#: Weekend demand multiplier (Fig. 11 shows weekend dips).
WEEKEND_FACTOR = 0.22
#: Lognormal sigma of slow multiplicative noise: independent anchors
#: every 30 minutes, linearly interpolated in between.
NOISE_SIGMA = 0.16
#: Surge events per pair per weekday (rounded, at least one unless 0,
#: which means none): a meeting block starting, demand jumping
#: several-fold within five minutes.
SURGES_PER_DAY = 3.0
#: Surge magnitude range (multiplier on current demand).
SURGE_FACTOR_MIN = 1.5
SURGE_FACTOR_MAX = 4.0
#: Surge duration range, seconds.
SURGE_DURATION_MIN_S = 600.0
SURGE_DURATION_MAX_S = 3600.0
#: Per-pair peak demand scale, Mbps: lognormal(mu, sigma) keeps a few
#: heavy pairs and many light ones.
PAIR_SCALE_MU = 5.0
PAIR_SCALE_SIGMA = 0.9
#: DingTalk's user base is China-centric: per-region activity weights
#: multiply into pair scales (pair weight = product of endpoints).
#: Keyed by the bucket `DemandModel._activity` sorts a region into.
ACTIVITY = {"china": 4.0, "asia": 1.0, "europe": 0.55, "america": 0.45,
            "australia": 0.4}


def three_peak_shape(hours_local, peak_hours, peak_amps,
                     width_h: float) -> np.ndarray:
    """Sum-of-Gaussians daily shape in [0, ~1], with period 24 h."""
    h = np.asarray(hours_local, dtype=float) % 24.0
    total = np.zeros_like(h)
    for centre, amp in zip(peak_hours, peak_amps):
        # Wrap-around distance on the 24 h circle.
        d = np.minimum(np.abs(h - centre), 24.0 - np.abs(h - centre))
        # `float_power` is libm's pow for scalars and arrays alike.  A
        # plain `** 2` is not one operation: NumPy squares an array as
        # x*x but sends a float64 scalar to pow, an ulp apart at about
        # one input in a thousand.  Demand matrices were always sampled
        # one instant at a time, through the scalar branch, so pow's
        # bits are the ones every recorded control decision rests on.
        total = total + amp * np.exp(-0.5 * np.float_power(d / width_h, 2.0))
    return total


#: Upper bound on the elements of one (pairs x times) evaluation block,
#: so a long `total_mbps` series at planet scale keeps small temporaries.
_BLOCK_ELEMENTS = 1 << 18


class DemandModel:
    """Deterministic per-pair demand process (Mbps)."""

    def __init__(self, regions: List[Region], seed: int = 0):
        if len(regions) < 2:
            raise ValueError("demand model needs at least two regions")
        self.regions = list(regions)

        # Per-pair scale (peak Mbps) and a distinct noise seed.  The scale
        # carries the China-centric activity weights: DingTalk's heavy
        # pairs are China-China and China-X.
        #: Every ordered pair, in the row order of the stacked parameters.
        self.pairs: List[RegionPair] = [
            (a.code, b.code) for a in regions for b in regions
            if a.code != b.code]
        generators, noise_seeds = RngStreams(seed).get_many(
            [f"traffic.{a}->{b}" for (a, b) in self.pairs])
        activity = {r.code: self._activity(r) for r in regions}
        self._scale = {
            (a, b): activity[a] * activity[b] * float(
                rng.lognormal(PAIR_SCALE_MU, PAIR_SCALE_SIGMA))
            for (a, b), rng in zip(self.pairs, generators)}

        # The same parameters stacked as (pairs, 1) columns, so one
        # broadcast evaluation covers any rows x times block.
        offset = {r.code: r.utc_offset for r in regions}
        self._row = {pair: i for i, pair in enumerate(self.pairs)}
        self._offset_src = np.array(
            [[offset[a]] for (a, __) in self.pairs], dtype=float)
        self._offset_dst = np.array(
            [[offset[b]] for (__, b) in self.pairs], dtype=float)
        self._scale_col = np.array(
            [[self._scale[pair]] for pair in self.pairs], dtype=float)
        self._noise_seed = noise_seeds[:, None]
        self._surge_seed = self._noise_seed ^ np.uint64(0x5157)

        # Surge slots are recurrent: each pair's preferred start, base
        # magnitude and base duration per slot never change, so they
        # are hashed once here, as (pairs, slots) matrices.
        n_slots = (max(1, int(round(SURGES_PER_DAY)))
                   if SURGES_PER_DAY > 0 else 0)
        slots = np.arange(n_slots, dtype=float)
        # Preferred local hour in the source's business/evening span.
        pref_h = 8.5 + hash_uniform(self._surge_seed, slots, salt=21) * 13.0
        self._surge_start_s = ((pref_h - self._offset_src) % 24.0) * 3600.0
        self._surge_factor_base = (
            SURGE_FACTOR_MIN
            + hash_uniform(self._surge_seed, slots, salt=22)
            * (SURGE_FACTOR_MAX - SURGE_FACTOR_MIN))
        self._surge_duration_s = (
            SURGE_DURATION_MIN_S
            + hash_uniform(self._surge_seed, slots, salt=23)
            * (SURGE_DURATION_MAX_S - SURGE_DURATION_MIN_S))

    @staticmethod
    def _activity(region: Region) -> float:
        """User-base weight of a region (DingTalk is China-centric)."""
        if region.continent == "Asia" and region.utc_offset == 8.0:
            return ACTIVITY["china"]
        if region.continent == "Asia":
            return ACTIVITY["asia"]
        if region.continent == "Europe":
            return ACTIVITY["europe"]
        if region.continent == "Australia":
            return ACTIVITY["australia"]
        return ACTIVITY["america"]

    # ------------------------------------------------------------------ api
    def pair_scale(self, src: str, dst: str) -> float:
        """Peak-demand scale of a pair, Mbps."""
        return self._scale[(src, dst)]

    def rate_mbps(self, src: str, dst: str, t) -> np.ndarray:
        """Demand rate from `src` to `dst` at time(s) `t`, Mbps."""
        t = np.asarray(t, dtype=float)
        row = self._row[(src, dst)]
        return self._rates(slice(row, row + 1), t.ravel()).reshape(t.shape)

    def rates_mbps(self, t: float) -> np.ndarray:
        """Demand of every pair at instant `t`, in `pairs` order, Mbps."""
        return self._rates(slice(None), np.array([t], dtype=float))[:, 0]

    def total_mbps(self, t) -> np.ndarray:
        """Aggregate cross-region demand at time(s) `t` (Fig. 5a)."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        total = np.zeros_like(flat)
        step = max(1, _BLOCK_ELEMENTS // max(1, flat.size))
        for lo in range(0, len(self.pairs), step):
            # Accumulated pair by pair: float addition is not
            # associative, and `sum(axis=0)` adds in another order.
            for rates in self._rates(slice(lo, lo + step), flat):
                total = total + rates
        return total.reshape(t.shape)

    # -------------------------------------------------------------- internal
    def _rates(self, rows: slice, t: np.ndarray) -> np.ndarray:
        """The demand formula for pairs `rows` at the (T,) instants `t`:
        a (rows, T) matrix.  Every operation is element-wise on
        (rows, 1) parameter columns broadcast against `t`, so a value
        does not depend on which other rows or instants share its call."""
        h_src = (t / 3600.0 + self._offset_src[rows]) % 24.0
        h_dst = (t / 3600.0 + self._offset_dst[rows]) % 24.0
        shape_src = three_peak_shape(h_src, PEAK_HOURS, PEAK_AMPS,
                                     PEAK_WIDTH_H)
        shape_dst = three_peak_shape(h_dst, PEAK_HOURS, PEAK_AMPS,
                                     PEAK_WIDTH_H)
        # A conference needs participants on both sides awake: geometric
        # mean couples the two diurnal cycles (with a small offset so a
        # one-sided meeting is possible but rare).
        off = SHAPE_OFFSET
        shape = np.sqrt((shape_src + off) * (shape_dst + off))

        weekly = self._weekly_factor(t)
        noise = self._noise(rows, t)
        surge = self._surge_factor(rows, t)
        scale = self._scale_col[rows]
        floor = FLOOR_FRACTION * scale
        return scale * shape * weekly * noise * surge + floor

    def _weekly_factor(self, t: np.ndarray) -> np.ndarray:
        day_index = np.floor(t / SECONDS_PER_DAY).astype(int) % 7
        # Days 5 and 6 of each simulated week are the weekend.
        return np.where(day_index >= 5, WEEKEND_FACTOR, 1.0)

    def _noise(self, rows: slice, t: np.ndarray) -> np.ndarray:
        # Slow multiplicative noise: lognormal anchors every 30 minutes,
        # linearly interpolated.  Aggregate conferencing demand wanders but
        # does not jump tens of percent between adjacent 5-minute slots
        # (sharp jumps are modelled separately as surges).
        block_s = 1800.0
        pos = t / block_s
        base = np.floor(pos)
        frac = pos - base
        seed = self._noise_seed[rows]
        z0 = hash_noise(seed, base, salt=11)
        z1 = hash_noise(seed, base + 1, salt=11)
        z = z0 * (1.0 - frac) + z1 * frac
        return np.exp(NOISE_SIGMA * z)

    def _surge_factor(self, rows: slice, t: np.ndarray) -> np.ndarray:
        """Multiplier from surge events (meeting blocks).

        Surges are *recurrent*: each pair has a few preferred meeting
        times (scheduled dailies, weekly all-hands at the same hour), and
        every weekday a surge fires near each preferred time with jittered
        start, magnitude, and duration.  Demand jumps several-fold within
        five minutes — but because the jump recurs at the same time each
        day, a periodic (DTFT) predictor can anticipate it while reactive
        scaling is surprised every single day (§5.1's rationale).
        """
        seed = self._surge_seed[rows]
        result = np.ones((seed.shape[0], t.size))
        day = np.floor(t / SECONDS_PER_DAY)
        weekday = (day.astype(int) % 7) < 5
        for i in range(self._surge_start_s.shape[1]):
            base_start = self._surge_start_s[rows, i:i + 1]
            base_factor = self._surge_factor_base[rows, i:i + 1]
            base_duration = self._surge_duration_s[rows, i:i + 1]
            # Daily jitter: a couple of minutes on the start, ~20% on the
            # magnitude and duration.
            jit_start = (hash_uniform(seed, day, salt=31 + i) - 0.5) * 360.0
            jit_mag = 0.8 + 0.4 * hash_uniform(seed, day, salt=41 + i)
            jit_dur = 0.8 + 0.4 * hash_uniform(seed, day, salt=51 + i)
            start = day * SECONDS_PER_DAY + base_start + jit_start
            duration = base_duration * jit_dur
            factor = 1.0 + (base_factor - 1.0) * jit_mag
            dt = t - start
            ramp = np.clip(dt / 300.0, 0.0, 1.0)
            decay = np.clip(1.0 - (dt - duration) / 600.0, 0.0, 1.0)
            envelope = np.where((dt >= 0) & weekday,
                                np.minimum(ramp, decay), 0.0)
            result = np.maximum(result, 1.0 + (factor - 1.0) * envelope)
        return result
