"""The three-peak traffic-demand model.

Demand from region i to region j at time t is

    rate(i, j, t) = scale_ij x shape(local hour of i, local hour of j)
                    x weekly(t) x noise_ij(t) x surge_ij(t) + floor

where `shape` is a sum of three Gaussians at the configured peak hours
(meetings happen in the *participants'* working hours, so we use the mean
of the source and destination bumps: cross-continent pairs get demand when
either side is awake, damped when the other sleeps), `weekly` drops
weekends, `noise` is slow lognormal jitter and `surge` models meeting
blocks starting (a several-fold jump within five minutes).

Everything is a pure function of (seed, pair, t): no state, so any window
of any day can be sampled directly — exactly like the underlay processes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.sim.rng import RngStreams, hash_noise, hash_uniform
from repro.traffic.config import TrafficConfig
from repro.underlay.regions import Region, RegionPair

SECONDS_PER_DAY = 86400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


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

    def __init__(self, regions: List[Region],
                 config: Optional[TrafficConfig] = None, seed: int = 0):
        if len(regions) < 2:
            raise ValueError("demand model needs at least two regions")
        self.regions = list(regions)
        self.config = config if config is not None else TrafficConfig()
        cfg = self.config

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
                rng.lognormal(cfg.pair_scale_mu, cfg.pair_scale_sigma))
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
        n_slots = (max(1, int(round(cfg.surges_per_day)))
                   if cfg.surges_per_day > 0 else 0)
        slots = np.arange(n_slots, dtype=float)
        # Preferred local hour in the source's business/evening span.
        pref_h = 8.5 + hash_uniform(self._surge_seed, slots, salt=21) * 13.0
        self._surge_start_s = ((pref_h - self._offset_src) % 24.0) * 3600.0
        self._surge_factor_base = (
            cfg.surge_factor_min
            + hash_uniform(self._surge_seed, slots, salt=22)
            * (cfg.surge_factor_max - cfg.surge_factor_min))
        self._surge_duration_s = (
            cfg.surge_duration_min_s
            + hash_uniform(self._surge_seed, slots, salt=23)
            * (cfg.surge_duration_max_s - cfg.surge_duration_min_s))

    def _activity(self, region: Region) -> float:
        """User-base weight of a region (DingTalk is China-centric)."""
        cfg = self.config
        if region.continent == "Asia" and region.utc_offset == 8.0:
            return cfg.activity_china
        if region.continent == "Asia":
            return cfg.activity_asia
        if region.continent == "Europe":
            return cfg.activity_europe
        if region.continent == "Australia":
            return cfg.activity_australia
        return cfg.activity_america

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
        cfg = self.config
        h_src = (t / 3600.0 + self._offset_src[rows]) % 24.0
        h_dst = (t / 3600.0 + self._offset_dst[rows]) % 24.0
        shape_src = three_peak_shape(h_src, cfg.peak_hours, cfg.peak_amps,
                                     cfg.peak_width_h)
        shape_dst = three_peak_shape(h_dst, cfg.peak_hours, cfg.peak_amps,
                                     cfg.peak_width_h)
        # A conference needs participants on both sides awake: geometric
        # mean couples the two diurnal cycles (with a small offset so a
        # one-sided meeting is possible but rare).
        off = cfg.shape_offset
        shape = np.sqrt((shape_src + off) * (shape_dst + off))

        weekly = self._weekly_factor(t)
        noise = self._noise(rows, t)
        surge = self._surge_factor(rows, t)
        scale = self._scale_col[rows]
        floor = cfg.floor_fraction * scale
        return scale * shape * weekly * noise * surge + floor

    def _weekly_factor(self, t: np.ndarray) -> np.ndarray:
        day_index = np.floor(t / SECONDS_PER_DAY).astype(int) % 7
        # Days 5 and 6 of each simulated week are the weekend.
        return np.where(day_index >= 5, self.config.weekend_factor, 1.0)

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
        return np.exp(self.config.noise_sigma * z)

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
