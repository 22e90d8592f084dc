"""Active probing (§4.1), and the one definition of a monitoring draw.

Each gateway probes its adjacent overlay links with pseudo-packet bursts:
one burst every ~400 ms, fifteen 1.5 KB packets per burst.  A probe is
judged lost when more than twenty succeeding responses arrive first, or
when its response is still missing after three RTTs — both conditions
amount to "the reply did not come back in time", which is how the
simulation draws losses from the link's loss process.

`burst_draws` is what one burst measures: a pure function of a seed
per link and probe slot, the absolute burst number and the true loss,
through which every monitoring draw of both engines goes — over a run
of instants for every link of an underlay (`BurstNoise`, the event
engine), or over a window of bursts (`burst_series`, the grid engine).
"""

from __future__ import annotations

from typing import Callable, Tuple, Union

import numpy as np

from repro.dataplane.config import MonitoringConfig
from repro.obs import telemetry as _telemetry
from repro.obs.metrics import HotCounters
from repro.sim.rng import RngStreams, hash_uniform
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_INDEX, TYPE_ORDER, SegmentMemo

_TEL = _telemetry()
_BURST_COUNTERS = HotCounters("probing.bursts", "probing.bytes",
                              "probing.lost_packets")

#: Hash salts of a burst's two uniforms: the lost-count quantile, then
#: the latency jitter.
_SALTS = np.array([3, 4], dtype=np.uint64)

#: Most instants one `BurstNoise` block holds: one 30 s control epoch
#: of 0.4 s probing steps.
BLOCK_INSTANTS = 75
#: Most (instant, slot, link) draws one block holds, so that its arrays
#: stay cache-sized: a block of the 100-region underlay's probes is a
#: few instants.
BLOCK_ELEMENTS = 1 << 17


def burst_draws(seed: Union[int, np.ndarray], burst, loss, packets: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    """One burst of `packets` packets per element of the broadcast of
    `seed` (uint64) and `burst` (absolute burst numbers), on a link
    losing `loss` (true loss rates, broadcast to that shape): its
    latency jitter, ``0.98 + 0.04 * hash_uniform(seed, burst, salt=4)``
    (measured over true latency), and its lost packets, Binomial(packets,
    min(loss, 1))'s inverse CDF at ``hash_uniform(seed, burst, salt=3)``.
    Nothing else goes in: a link, slot and burst read the same whenever,
    wherever and in whatever order.
    """
    ndim = max(np.ndim(seed), np.ndim(burst))
    u, jitter = hash_uniform(seed, burst,
                             salt=_SALTS.reshape((2,) + (1,) * ndim))
    p = np.minimum(loss, 1.0, out=np.empty(np.shape(u)))
    return 0.98 + 0.04 * jitter, _binomial_quantile(u, p, packets)


def _binomial_quantile(u: np.ndarray, p: np.ndarray, n: int) -> np.ndarray:
    """Binomial(n, p)'s inverse CDF at `u` (both of one shape): how many
    of F(0), ..., F(n - 1) are at or below u.  F is summed from the
    pmf's recurrence, past F(0) only over the elements that lost a
    packet at all — at monitoring loss rates, a small share."""
    lost = np.asarray(u >= (1.0 - p) ** n)
    walking = np.flatnonzero(lost)
    lost = lost.astype(np.int64)
    if walking.size:
        u, p = np.ravel(u)[walking], np.ravel(p)[walking]
        q = 1.0 - p
        # A certain loss (q = 0) keeps the pmf at 0: every packet lost.
        ratio = p / np.maximum(q, 1e-300)
        pmf = cdf = q ** n
        count = lost.flat[walking]
        for k in range(1, n):
            pmf = pmf * ratio * ((n - k + 1) / k)
            cdf = cdf + pmf
            more = u >= cdf
            if not np.count_nonzero(more):
                break
            count += more
        lost.flat[walking] = count
    return lost


def burst_bytes(lost: np.ndarray, config: MonitoringConfig) -> int:
    """Bytes the bursts that lost `lost` packets each put on the wire;
    counts them, and their lost packets, in the probing telemetry."""
    nbytes = lost.size * config.packets_per_burst * config.packet_bytes
    if _TEL.enabled:
        counters = _BURST_COUNTERS.fetch(_TEL.metrics)
        for counter, amount in zip(counters,
                                   (lost.size, nbytes, int(lost.sum()))):
            counter.inc(amount)
    return nbytes


def link_seed(streams: RngStreams, family: str,
              hop: Tuple[str, str, LinkType], slot: int = 0) -> int:
    """The seed of one kind of draw (`family`) on a directed link by a
    probe slot; the grid engine's probe of a hop is the event engine's
    slot 0 (no suffix)."""
    src, dst, link_type = hop
    key = f"{family}.{src}->{dst}.{link_type.value}"
    return streams.seed_for(f"{key}.{slot}" if slot else key)


class BurstNoise:
    """One family of monitoring draws on every directed link of an
    underlay by `slots` probe slots, and the truth they are drawn from,
    read one instant at a time (`at`) out of blocks of instants.

    A reader steps like `PeriodicTask`: ``t, t + dt, (t + dt) + dt, ...``
    with ``dt = interval_s``.  An instant that continues the last
    block's grid opens a block of that grid — up to `BLOCK_INSTANTS`,
    fewer where `BLOCK_ELEMENTS` or the underlay's horizon say — so
    the engine's instants hit it exactly; any other miss (the first
    instant, a jump, an off-grid caller) gets a block of its own
    instant.  A block's truth is one `LinkTable.block` pass (behind
    this reader's own segment memo) and its draws one `burst_draws`
    over (instants, slots, links).  Links run by source region in the
    underlay's order, then destination, Internet before premium: a
    region's links are one run (`span`) in its gateways' order."""

    def __init__(self, underlay, streams: RngStreams, family: str,
                 slots: int, packets: int, interval_s: float):
        codes = underlay.codes
        self.underlay = underlay
        self.packets = packets
        self.interval_s = interval_s
        self.hops = [(src, dst, link_type) for src in codes for dst in codes
                     if dst != src for link_type in TYPE_ORDER]
        column = {code: i for i, code in enumerate(codes)}
        #: (tier, src, dst) index vectors into the underlay's matrices.
        self.index = tuple(np.array(axis, dtype=np.intp) for axis in zip(
            *((TYPE_INDEX[lt], column[a], column[b])
              for (a, b, lt) in self.hops)))
        #: The same, as positions in a flattened ``(2, N, N)`` matrix.
        self._flat = np.ravel_multi_index(self.index, (2,) + (len(codes),) * 2)
        self.seeds = np.array([[link_seed(streams, family, hop, slot)
                                for hop in self.hops]
                               for slot in range(slots)], dtype=np.uint64)
        #: Instants one block holds at most.
        self.length = max(1, min(BLOCK_INSTANTS,
                                 BLOCK_ELEMENTS // self.seeds.size))
        self._memo = SegmentMemo()
        #: The block: (latency, loss) per instant and link, (jitter,
        #: lost) per instant, slot and link; its instants -> row; the
        #: instant that continues its grid; the table generation.
        self._block = None
        self._rows = {}
        self._next = None
        self._generation = None

    def span(self, region: str) -> slice:
        """The run of `region`'s adjacent links."""
        per_region = 2 * (len(self.underlay.codes) - 1)
        lo = self.underlay.codes.index(region) * per_region
        return slice(lo, lo + per_region)

    def at(self, now: float) -> Tuple[np.ndarray, ...]:
        """(true latency, true loss) per link and (jitter, lost packets)
        per slot and link at `now` — burst ``round(now / interval_s)`` —
        as read-only rows of the block holding `now`."""
        if self._generation != self.underlay.table.generation:
            self._rows, self._next = {}, None
        row = self._rows.get(now)
        if row is None:
            self._fill(now)
            row = 0
        return tuple(part[row] for part in self._block)

    def _fill(self, now: float) -> None:
        """Evaluate the block that starts at `now`."""
        table = self.underlay.table
        times = [now]
        if now == self._next:
            t = now
            for __ in range(self.length - 1):
                t = t + self.interval_s
                if t > table.horizon_s:
                    break
                times.append(t)
        times = np.array(times, dtype=float)
        lat, loss = (np.take(state.reshape(times.size, -1), self._flat,
                             axis=1)
                     for state in table.block(times, self._memo))
        block = (lat, loss) + burst_draws(
            self.seeds, np.round(times / self.interval_s)[:, None, None],
            loss[:, None, :], self.packets)
        for part in block:
            part.setflags(write=False)
        self._block = block
        times = times.tolist()
        self._rows = {t: k for k, t in enumerate(times)}
        self._next = times[-1] + self.interval_s
        self._generation = table.generation


#: True link state over a time grid: times -> (latency_ms, loss_rate).
LinkSeriesFn = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def burst_series(link: LinkSeriesFn, t0: float, t1: float,
                 config: MonitoringConfig, seed: Union[int, np.ndarray]
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised probing of links over [t0, t1).

    Returns (burst_times, measured_latency_ms, burst_loss_fraction), one
    entry per burst interval, each burst drawn by `burst_draws` at its
    absolute burst number — what the event engine's slot-0
    representative measures at the same instants.

    `link` maps the burst times to the true latency and loss: a block's
    ``(links, bursts)`` matrices (`Underlay.link_series` with the hops
    bound) with `seed` a ``(links, 1)`` uint64 column, so the measured
    series carry the same leading axis and each row equals the call on
    that link alone.
    """
    if t1 <= t0:
        raise ValueError(f"empty probing window [{t0}, {t1})")
    times = np.arange(t0, t1, config.burst_interval_s)
    lat, loss = link(times)
    n = config.packets_per_burst
    jitter, lost = burst_draws(
        seed, np.round(times / config.burst_interval_s), loss, n)
    return times, lat * jitter, lost / n
