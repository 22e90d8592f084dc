"""The link table and matrix-valued link-state snapshots.

A `LinkTable` holds every directed link's model parameters as
``(2, N, N)`` matrices (axis 0 is the link tier in `TYPE_ORDER`) and is
the one implementation of the link model.  A `LinkStateSnapshot` holds
the state of every link at one instant as dense latency/loss matrices
of the same shape; it is the only link-state type the control plane
reads, so every consumer reads plain array elements.

A snapshot comes from one of two places:

* `from_underlay` — one vectorised pass over an `Underlay`'s table
  (stateless hash noise over a seed *matrix*, diurnal terms broadcast
  from per-region offsets), plus one cheap scalar timeline lookup per
  link whose timeline left its remembered piece.
* plain construction from matrices — what the NIB's whole-matrix
  `latest_snapshot` / `robust_snapshot` return to the controller.

`symmetric` is the round-trip view of either (the symmetric-only
ablation and Fig. 19).  `path_latency_ms` accumulates hop by hop, left
to right, as the solver's batched route metrics do, so every consumer
of one snapshot sees the same bits — the golden-equivalence tests pin
this down.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.sim.rng import hash_noise
from repro.underlay.linkstate import LinkType, busy_factor

#: Tier order of axis 0 of the snapshot matrices.
TYPE_ORDER: Tuple[LinkType, ...] = (LinkType.INTERNET, LinkType.PREMIUM)
#: LinkType -> row index in axis 0.
TYPE_INDEX = {t: i for i, t in enumerate(TYPE_ORDER)}


class LinkStateSnapshot:
    """Dense per-tier latency/loss matrices for one control instant.

    ``lat[k, i, j]`` / ``loss[k, i, j]`` hold the state of the directed
    link ``codes[i] -> codes[j]`` of tier ``TYPE_ORDER[k]``.  Missing or
    disallowed links are ``(inf, 1.0)``; the diagonal is always missing.
    """

    __slots__ = ("codes", "index", "lat", "loss", "t")

    def __init__(self, codes: Sequence[str], lat: np.ndarray,
                 loss: np.ndarray, t: Optional[float] = None):
        n = len(codes)
        if lat.shape != (2, n, n) or loss.shape != (2, n, n):
            raise ValueError(f"snapshot matrices must be (2, {n}, {n}); "
                             f"got {lat.shape} and {loss.shape}")
        self.codes = list(codes)
        self.index = {c: i for i, c in enumerate(self.codes)}
        self.lat = lat
        self.loss = loss
        self.t = t

    # ---------------------------------------------------------------- build
    @classmethod
    def empty(cls, codes: Sequence[str],
              t: Optional[float] = None) -> "LinkStateSnapshot":
        """All links missing: latency inf, loss 1."""
        n = len(codes)
        return cls(codes, np.full((2, n, n), np.inf),
                   np.ones((2, n, n)), t)

    @classmethod
    def from_underlay(cls, underlay, t: float) -> "LinkStateSnapshot":
        """Every link of `underlay` at instant `t`, in one vectorised
        pass over its `LinkTable`."""
        p = underlay.table
        t_f = float(t)
        p.check_horizon(t_f)
        lat, loss = p.evaluate(..., _busy(p.utc_offset[None, :, None], t_f),
                               p.jitter_at(t_f), *p.timeline_adds(t_f))

        diag = np.arange(len(underlay.codes))
        lat[:, diag, diag] = np.inf
        loss[:, diag, diag] = 1.0
        return cls(underlay.codes, lat, loss, t_f)

    def ensure(self, codes: Sequence[str]) -> "LinkStateSnapshot":
        """This snapshot, checked to cover exactly `codes` in the same
        order — the solver indexes its capacity arrays by that order."""
        if self.codes != list(codes):
            raise ValueError(
                "snapshot regions do not match the requested codes: "
                f"{self.codes} vs {list(codes)}")
        return self

    def symmetric(self) -> "LinkStateSnapshot":
        """The round-trip view: each link's latency and loss averaged
        with its reverse link's where both are finite, else (inf, 1)."""
        lat_rev = self.lat.transpose(0, 2, 1)
        loss_rev = self.loss.transpose(0, 2, 1)
        both = np.isfinite(self.lat) & np.isfinite(lat_rev)
        return LinkStateSnapshot(
            self.codes, np.where(both, (self.lat + lat_rev) / 2.0, np.inf),
            np.where(both, (self.loss + loss_rev) / 2.0, 1.0), self.t)

    # --------------------------------------------------------------- lookup
    def lookup(self, src: str, dst: str,
               link_type: LinkType) -> Tuple[float, float]:
        """Scalar (latency, loss) of one directed link."""
        ti = TYPE_INDEX[link_type]
        i, j = self.index[src], self.index[dst]
        return (float(self.lat[ti, i, j]), float(self.loss[ti, i, j]))

    # --------------------------------------------------------- path metrics
    def path_latency_ms(self, path) -> float:
        """End-to-end latency of one `OverlayPath`, the sum of its hop
        latencies (Table 1's Lat(P)) accumulated left to right."""
        lat, index = self.lat, self.index
        total = 0.0
        for (a, b, link_type) in path.hops:
            total = total + lat[TYPE_INDEX[link_type], index[a], index[b]]
        return float(total)

    def direct_latency(self, srcs: Sequence[str], dsts: Sequence[str],
                       link_type: LinkType) -> np.ndarray:
        """Latencies of many direct links of one tier (fancy-indexed)."""
        index = self.index
        ii = np.fromiter((index[s] for s in srcs), dtype=np.intp,
                         count=len(srcs))
        jj = np.fromiter((index[d] for d in dsts), dtype=np.intp,
                         count=len(dsts))
        return self.lat[TYPE_INDEX[link_type], ii, jj]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        at = "" if self.t is None else f" @ t={self.t:.0f}s"
        return f"LinkStateSnapshot({len(self.codes)} regions{at})"


class LinkTable:
    """Every directed link's model parameters, stacked into ``(2, N, N)``
    matrices (axis 0 the tier in `TYPE_ORDER`), plus each link's
    degradation timeline: the underlay's only link store and the only
    place the link model is written down.

    `build_underlay` fills it in one write per parameter (`set_links`)
    and checks it once (`validate`); `Underlay.set_timeline` swaps a
    timeline.  A link's key is (src code, dst code, `LinkType`), its
    row in the matrices (tier, i, j) (`rows`).  Two evaluations share
    it: every link at one instant (`LinkStateSnapshot.from_underlay`)
    and some links over a time grid (`series`, behind
    `Underlay.link_series` and each `LinkProcess` view).

    Both compute each term of the link model once per value it can
    take: the jitter factors hash ``floor(t)``, so once per link-second
    (`jitter`); the diurnal curve depends on the source region's UTC
    offset only, so once per distinct offset (`_busy`); a degradation
    timeline is piecewise linear, so it is searched once per piece
    (`timeline_adds`, `timeline_series`).  `evaluate` combines them.
    """

    __slots__ = ("base_latency_ms", "jitter_sigma", "diurnal_latency_amp",
                 "base_loss", "diurnal_loss_amp", "noise_seed", "utc_offset",
                 "index", "rows", "timelines", "horizon_s", "_segments",
                 "_jitter_second", "_jitter")

    def __init__(self, regions: Sequence):
        n = len(regions)
        shape = (2, n, n)
        self.base_latency_ms = np.zeros(shape)
        self.jitter_sigma = np.zeros(shape)
        self.diurnal_latency_amp = np.zeros(shape)
        self.base_loss = np.zeros(shape)
        self.diurnal_loss_amp = np.zeros(shape)
        self.noise_seed = np.zeros(shape, dtype=np.uint64)
        self.utc_offset = np.array([r.utc_offset for r in regions],
                                   dtype=float)
        self.index = {r.code: i for i, r in enumerate(regions)}
        #: Every link's key -> its row.
        self.rows = {}
        #: Every link's row -> its timeline.
        self.timelines = {}
        self.horizon_s = np.inf
        #: The segment memo of `timeline_adds` (see `_segment_memo`).
        self._segments = None
        #: The jitter memo of `jitter_at`: every link's two factors at
        #: the last whole second asked for.
        self._jitter_second = None
        self._jitter = None

    def set_links(self, keys: Sequence, *, base_latency_ms,
                  jitter_sigma, diurnal_latency_amp, base_loss,
                  diurnal_loss_amp, timelines: Sequence,
                  noise_seed) -> None:
        """Write the parameters of the directed links `keys` =
        [(src, dst, `LinkType`)], in `keys`' order: `timelines` holds
        one timeline per key, every other keyword one value per key or
        one value for all."""
        index = self.index
        rows = [(TYPE_INDEX[link_type], index[src], index[dst])
                for (src, dst, link_type) in keys]
        self.rows.update(zip(keys, rows))
        sel = tuple(np.array(axis, dtype=np.intp) for axis in zip(*rows))
        self.base_latency_ms[sel] = base_latency_ms
        self.jitter_sigma[sel] = jitter_sigma
        self.diurnal_latency_amp[sel] = diurnal_latency_amp
        self.base_loss[sel] = base_loss
        self.diurnal_loss_amp[sel] = diurnal_loss_amp
        self.noise_seed[sel] = noise_seed
        self.timelines.update(zip(rows, timelines))
        self.horizon_s = min([self.horizon_s]
                             + [tl.horizon_s for tl in timelines])
        self._segments = None
        self._jitter_second = None

    def validate(self) -> None:
        """Every link's base latency is positive and its base loss in
        [0, 1) (the diagonal holds no link)."""
        links = ~np.eye(len(self.index), dtype=bool)
        latency = self.base_latency_ms[:, links]
        if not np.all(latency > 0):
            raise ValueError(
                f"base latency must be positive: {latency.min()}")
        loss = self.base_loss[:, links]
        if not np.all((loss >= 0.0) & (loss < 1.0)):
            raise ValueError(f"base loss must be in [0,1): "
                             f"{loss.min()} .. {loss.max()}")

    def set_timeline(self, row, timeline) -> None:
        """Replace the degradation timeline of the link in `row`."""
        self.timelines[row] = timeline
        self.horizon_s = min(tl.horizon_s for tl in self.timelines.values())
        self._segments = None

    def _segment_memo(self):
        """(memo, (tier, i, j) index vectors, timelines) of the links
        with events.

        Zero-event timelines evaluate to 0.0 at every instant; skipping
        them turns 2·N² scalar lookups per snapshot into one per link
        that actually has events (a small fraction at short horizons).
        Column k of the memo is the linear piece
        (`EventTimeline.segment`) of the k-th of those links that
        covered the last instant asked for.  Row 0 (`lo`) starts at
        +inf, so the first instant finds every link outside.
        """
        if self._segments is None:
            eventful = {key: timeline
                        for key, timeline in self.timelines.items()
                        if len(timeline)}
            self._segments = (np.full((7, len(eventful)), np.inf),
                              tuple(np.array(axis, dtype=np.intp)
                                    for axis in zip(*eventful)),
                              tuple(eventful.values()))
        return self._segments

    def check_horizon(self, t_max: float) -> None:
        if t_max > self.horizon_s:
            raise ValueError(
                f"query at t={t_max:.0f}s exceeds the generated "
                f"horizon {self.horizon_s:.0f}s; build the underlay "
                "with a larger horizon")

    def evaluate(self, sel, busy, jitter, lat_add,
                 loss_add) -> Tuple[np.ndarray, np.ndarray]:
        """(latency_ms, loss_rate) of the links picked by index `sel`:
        the link model, from terms the caller evaluated where they
        change — `busy` the diurnal curve at the links' source regions
        (`_busy`), `jitter` their two factors (`jitter`), `lat_add` /
        `loss_add` their timelines' terms.  ``param[sel]`` and the
        terms must broadcast to the result's shape.

        Latency is base x (1 + amp x busy) x jitter plus the timeline's
        excursion; loss is base x jitter plus amp x busy plus the
        timeline's, clipped to [0, 1].  Every element runs the same
        IEEE operations in the same order whichever caller asks, so a
        link reads the same bits in a snapshot, a series and a view.
        """
        jitter_lat, jitter_loss = jitter
        diurnal_lat = 1.0 + self.diurnal_latency_amp[sel] * busy
        lat = self.base_latency_ms[sel] * diurnal_lat * jitter_lat + lat_add

        diurnal_loss = self.diurnal_loss_amp[sel] * busy
        raw = self.base_loss[sel] * jitter_loss + diurnal_loss + loss_add
        return lat, np.clip(raw, 0.0, 1.0)

    def jitter(self, sel, seconds) -> Tuple[np.ndarray, np.ndarray]:
        """The (latency, loss) jitter factors of the links picked by
        `sel` in the whole second(s) `seconds`: hash noise is indexed by
        ``floor(t)``, so every instant of one second shares them."""
        seed = self.noise_seed[sel]
        return (np.exp(self.jitter_sigma[sel]
                       * hash_noise(seed, seconds, salt=1)),
                np.exp(0.6 * hash_noise(seed, seconds, salt=2)))

    def jitter_at(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """`jitter` of every link at instant `t`, remembered for the
        second's other instants (the event engine steps 0.4 s)."""
        second = math.floor(t)
        if second != self._jitter_second:
            self._jitter = self.jitter(..., second)
            self._jitter_second = second
        return self._jitter

    def timeline_adds(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """(latency_add, loss_add) matrices at instant `t`.

        Bit-identical to `EventTimeline.latency_add` / `loss_add` per
        link, at any `t` in any order — but only
        the links whose timeline left its remembered piece are searched
        again (a handful per 0.4 s step; all of them after a jump), and
        the pieces are evaluated once over the link axis.
        """
        n = self.base_latency_ms.shape[1]
        lat_add = np.zeros((2, n, n))
        loss_add = np.zeros((2, n, n))
        seg, sel, timelines = self._segment_memo()
        if not timelines:
            return lat_add, loss_add
        left = np.flatnonzero((t < seg[0]) | (t >= seg[1]))
        if left.size:
            seg[:, left] = np.array([timelines[k].segment(t)
                                     for k in left.tolist()]).T
        __, __, t0, lat_val, lat_slope, loss_val, loss_slope = seg
        dt = t - t0
        lat = lat_val + lat_slope * dt
        loss = loss_val + loss_slope * dt
        lat_add[sel] = np.where(lat > 0.0, lat, 0.0)
        loss_add[sel] = np.where(loss > 0.0, loss, 0.0)
        return lat_add, loss_add

    def timeline_series(self, keys: Sequence,
                        times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(latency_add, loss_add), each ``(len(keys), len(times))``, of
        the links `keys` = [(tier, i, j)] over the ascending `times`.

        Bit-identical to `EventTimeline.latency_add` / `loss_add` per
        link, as one pass over the block: the pieces each timeline has
        inside the window (`EventTimeline.pieces`) are laid end to end,
        one search of their breakpoints into the grid says at which
        instant each piece starts, and a running count along the grid
        turns that into the piece of every (link, instant) — from which
        both series are `EventTimeline._eval`'s own operations.
        """
        n_times = times.size
        lat_add = np.zeros((len(keys), n_times))
        loss_add = np.zeros((len(keys), n_times))
        rows, tables = [], []
        for h, key in enumerate(keys):
            timeline = self.timelines[key]
            if len(timeline):
                pieces = timeline.pieces(times[0], times[-1])
                if pieces[0].size:
                    rows.append(h)
                    tables.append(pieces)
        if not rows:
            return lat_add, loss_add
        t0, lat_val, lat_slope, loss_val, loss_slope = (
            np.concatenate(column) for column in zip(*tables))
        count = np.array([pieces[0].size for pieces in tables])
        # A piece holds from the first instant at or after its
        # breakpoint (`_eval` searches side="right" the other way
        # round); marks past the grid's end fall in a spare column.
        starts_at = np.searchsorted(times, t0, side="left")
        row_of_piece = np.repeat(np.arange(len(rows)), count)
        started = np.bincount(
            row_of_piece * (n_times + 1) + starts_at,
            minlength=len(rows) * (n_times + 1),
        ).reshape(len(rows), n_times + 1)[:, :n_times].cumsum(axis=1)
        # `started` - 1 is the piece within the row's run of the table;
        # -1 is an instant before the timeline's first breakpoint.
        inside = started > 0
        piece = (np.cumsum(count) - count)[:, None] + np.maximum(
            started - 1, 0)
        dt = times - t0[piece]
        lat = np.where(inside, lat_val[piece] + lat_slope[piece] * dt, 0.0)
        loss = np.where(inside, loss_val[piece] + loss_slope[piece] * dt,
                        0.0)
        lat_add[rows] = np.maximum(lat, 0.0)
        loss_add[rows] = np.maximum(loss, 0.0)
        return lat_add, loss_add

    def series(self, hops: Sequence, times) -> Tuple[np.ndarray, np.ndarray]:
        """(latency_ms, loss_rate), each ``(len(hops), len(times))``, of
        the directed links `hops` = [(src, dst, LinkType)] over `times`.

        `times` is any 1-d sequence of instants up to the horizon —
        unsorted, repeated, one or none: column ``k`` is the links'
        state at ``times[k]`` whatever stands around it (an unsorted
        grid is evaluated in ascending order and put back).
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ValueError(f"times must be 1-d, got shape {times.shape}")
        rows = self.rows
        keys = [rows[hop] for hop in hops]
        if not len(keys) or not times.size:
            return (np.zeros((len(keys), times.size)),
                    np.zeros((len(keys), times.size)))
        if np.any(times[1:] < times[:-1]):
            order = np.argsort(times, kind="stable")
            lat, loss = self.series(hops, times[order])
            asked = np.empty_like(order)
            asked[order] = np.arange(order.size)
            return lat[:, asked], loss[:, asked]
        self.check_horizon(float(times[-1]))
        lat_add, loss_add = self.timeline_series(keys, times)
        ti, ii, jj = (np.array(k, dtype=np.intp) for k in zip(*keys))
        # The trailing None makes every picked parameter a (hops, 1)
        # column to broadcast against the (times,) axis.
        sel = (ti, ii, jj, None)
        seconds, second_of = np.unique(np.floor(times), return_inverse=True)
        jitter = [factor[:, second_of]
                  for factor in self.jitter(sel, seconds)]
        offsets, offset_of = np.unique(self.utc_offset[ii],
                                       return_inverse=True)
        busy = _busy(offsets[:, None], times)[offset_of]
        return self.evaluate(sel, busy, jitter, lat_add, loss_add)


def _busy(utc_offset, t) -> np.ndarray:
    """`busy_factor` at the local hour of instant(s) `t` where the
    clock reads UTC + `utc_offset` hours — one value per source region
    and instant, whichever of its links asks."""
    return busy_factor((t / 3600.0 + utc_offset) % 24.0)
