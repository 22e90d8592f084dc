"""The link table and matrix-valued link-state snapshots.

A `LinkTable` holds every directed link's model parameters as
``(2, N, N)`` matrices (axis 0 is the link tier in `TYPE_ORDER`) and is
the one implementation of the link model.  A `LinkStateSnapshot` holds
the state of every link at one instant as dense latency/loss matrices
of the same shape; it is the only link-state type the control plane
reads, so every consumer reads plain array elements.

A snapshot comes from one of two places:

* `from_underlay` — one vectorised pass over an `Underlay`'s table
  (`LinkTable.block` at one instant: stateless hash noise over a seed
  *matrix*, diurnal terms broadcast from per-region offsets, each
  link's timeline piece advanced past the breakpoints since the last
  instant asked).
* plain construction from matrices — what the NIB's whole-matrix
  `latest_snapshot` / `robust_snapshot` return to the controller.

`symmetric` is the round-trip view of either (the symmetric-only
ablation and Fig. 19).  `path_latency_ms` accumulates hop by hop, left
to right, as the solver's batched route metrics do, so every consumer
of one snapshot sees the same bits — the golden-equivalence tests pin
this down.
"""

from __future__ import annotations

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
        t_f = float(t)
        lat, loss = (state[0] for state in
                     underlay.table.block(np.array([t_f])))

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


#: Least span of simulated time a reader's piece window covers: a
#: window holds every breakpoint of its span, and moving it searches
#: each link with a breakpoint in the new span once.
WINDOW_S = 300.0


class _Window:
    """The timeline pieces of every link with events over ``[lo, hi]``.

    `timelines` and `sel` are those links' timelines and (tier, i, j)
    index vectors; ``links`` says which of them each of the window's
    runs of pieces belongs to.  The runs lie end to end as the rows of
    ``columns`` (t0, lat_val, lat_slope, loss_val, loss_slope); a link
    with breakpoints in the window has its run led by the zero piece
    that holds before its first breakpoint.  ``base`` is each run's
    piece at `lo`, ``last`` its piece at `hi` and ``end`` where that
    piece ends; the breakpoints after `lo` are listed in time order
    (``at`` their positions, ``at_t`` their times, ``link_of`` the run
    of every position), so the runs that any run of instants inside the
    window moves, and how far, are one search and one count.

    Built from `previous`, a link whose piece there covers the whole new
    span is copied as a run of that one piece; only the others are
    searched (`EventTimeline.cover`).
    """

    __slots__ = ("lo", "hi", "links", "sel", "columns", "base", "last",
                 "end", "link_of", "at", "at_t")

    def __init__(self, timelines: Sequence, sel: Tuple[np.ndarray, ...],
                 lo: float, hi: float, previous: Optional["_Window"] = None):
        self.lo, self.hi = lo, hi
        if previous is None:
            held = np.zeros(0, dtype=np.intp)
            searched = np.arange(len(timelines))
            columns, end = np.zeros((5, 0)), np.zeros(0)
        else:
            holds = ((previous.columns[0, previous.last] <= lo)
                     & (previous.end > hi))
            held, searched = previous.links[holds], previous.links[~holds]
            columns = previous.columns[:, previous.last[holds]]
            end = previous.end[holds]
        covers = [timelines[k].cover(lo, hi) for k in searched.tolist()]
        pieces, ends = zip(*covers) if covers else ((), ())
        parts = list(zip(*pieces)) or [[np.zeros(0)]] * 5
        counts = np.fromiter(map(len, parts[0]), dtype=np.intp,
                             count=len(pieces))
        # A searched link's run is its zero piece, then `cover`'s pieces,
        # which start with the one covering `lo` unless `lo` lies
        # before the link's first breakpoint.
        first = np.cumsum(counts + 1) - counts - 1
        found = np.zeros((5, first.size + counts.sum()))
        covered = np.ones(found.shape[1], dtype=bool)
        covered[first] = False
        found[:, covered] = [np.concatenate(part) for part in parts]
        first += held.size
        self.links = np.concatenate([held, searched])
        self.sel = tuple(axis[self.links] for axis in sel)
        self.columns = np.concatenate([columns, found], axis=1)
        self.end = np.concatenate([end, np.array(ends)])
        t0 = self.columns[0]
        base = first + ((counts > 0) & (t0[np.minimum(
            first + 1, t0.size - 1)] <= lo))
        self.base = np.concatenate([np.arange(held.size), base])
        runs = np.concatenate([np.ones(held.size, dtype=np.intp),
                               counts + 1])
        self.last = np.cumsum(runs) - 1
        self.link_of = np.repeat(np.arange(runs.size), runs)
        after = np.ones(t0.size, dtype=bool)
        after[:held.size] = False
        after[first] = False
        after[base] = False
        at = np.flatnonzero(after)
        self.at = at[np.argsort(t0[at], kind="stable")]
        self.at_t = t0[self.at]


class SegmentMemo:
    """Every eventful link's timeline piece at one instant, as positions
    in its `LinkTable`'s piece window (`LinkTable.timeline_block`): the
    memo of one reader that walks forward through time.  A fresh one,
    or one taken in another window, starts from the window's base.
    """

    __slots__ = ("window", "t", "piece", "values")

    def __init__(self):
        self.window = None
        self.t = -np.inf
        #: Each link's piece (a position in the window) and its columns.
        self.piece = None
        self.values = None


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
    (`jitter`, remembered across blocks by `_jitter_block`); the diurnal
    curve depends on the source region's UTC offset only, so once per
    distinct offset (`_busy`); a degradation timeline is piecewise
    linear, so it is searched once per piece (`timeline_block`,
    `timeline_series`).  `evaluate` combines them.  `block` is the
    first kind over a run of instants (`dataplane.probing.BurstNoise`).
    """

    __slots__ = ("base_latency_ms", "jitter_sigma", "diurnal_latency_amp",
                 "base_loss", "diurnal_loss_amp", "noise_seed", "utc_offset",
                 "index", "rows", "timelines", "horizon_s", "generation",
                 "_eventful", "_window", "_jitter", "_jitter_from")

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
        #: Counts the writes to links and timelines: a block of
        #: instants evaluated at another generation is stale.
        self.generation = 0
        #: The timelines and rows of the links with events, and the
        #: last piece window, of this generation (see `_piece_window`).
        self._eventful = None
        self._window = None
        #: The jitter memo of `_jitter_block`: whole second -> every
        #: link's two factors, from the first second of the last block.
        self._jitter = {}
        self._jitter_from = -np.inf

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
        self.generation += 1
        self._eventful = self._window = None
        self._jitter = {}

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
        self.generation += 1
        self._eventful = self._window = None

    def _piece_window(self, t_first: float, t_last: float,
                      span: float) -> "_Window":
        """The piece window holding ``[t_first, t_last]``: the last one,
        or one moved from it to ``[t_first, t_first + span]`` (at least
        to `t_last`).  Zero-event timelines evaluate to 0.0 at every
        instant and are left out."""
        window = self._window
        if window is None or not window.lo <= t_first <= t_last <= window.hi:
            if self._eventful is None:
                rows = [row for row, timeline in self.timelines.items()
                        if len(timeline)]
                self._eventful = ([self.timelines[row] for row in rows],
                                  tuple(np.array(axis, dtype=np.intp)
                                        for axis in zip(*rows)))
            window = self._window = _Window(
                *self._eventful, t_first, max(t_last, t_first + span),
                window)
        return window

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

    def block(self, times: np.ndarray, memo: Optional["SegmentMemo"] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
        """(latency_ms, loss_rate) of every link at each of the ascending
        instants `times`, each ``(len(times), 2, N, N)`` (the diagonal as
        evaluated): one pass of the link model over the run.

        `memo` is the `SegmentMemo` of a reader that walks forward in
        steps of its own, so another reader's instants never move its
        pieces; without one (a snapshot) the run is evaluated on its
        own.  An instant past the horizon is a `ValueError`.
        """
        self.check_horizon(float(times[-1]))
        busy = _busy(self.utc_offset[None, None, :, None],
                     times[:, None, None, None])
        return self.evaluate(..., busy, self._jitter_block(times),
                             *self.timeline_block(times, memo))

    def _jitter_block(self, times: np.ndarray) -> Tuple[np.ndarray, ...]:
        """`jitter` of every link at each of the ascending `times`,
        ``(len(times), 2, N, N)`` each, hashing only the whole seconds
        the memo lacks: however many readers and blocks ask for a
        second, it is hashed once.  Every instant asked later lies at
        or after this block's first (the engine steps forward), so the
        seconds before it are forgotten; a block that starts before
        the last one's first second (a jump back) forgets them all."""
        seconds = np.floor(times).tolist()
        memo, first = self._jitter, seconds[0]
        if first < self._jitter_from:
            memo.clear()
        for second in [s for s in memo if s < first]:
            del memo[second]
        self._jitter_from = first
        missing = [s for s in dict.fromkeys(seconds) if s not in memo]
        if missing:
            lat, loss = self.jitter(..., np.array(missing)[:, None, None,
                                                           None])
            memo.update(zip(missing, zip(lat, loss)))
        return tuple(np.stack(factor)
                     for factor in zip(*(memo[s] for s in seconds)))

    def timeline_block(self, times: np.ndarray,
                       memo: Optional["SegmentMemo"] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """(latency_add, loss_add), each ``(len(times), 2, N, N)``, at
        the ascending `times`.

        Bit-identical to `EventTimeline.latency_add` / `loss_add` per
        link, at any run of instants after any other: `memo` holds
        every link's piece at the last instant it saw, and only the
        breakpoints since then are visited — one search of the piece
        window's sorted breakpoints (`_piece_window`) finds them, a
        running count along the run moves the links they belong to, and
        the pieces are evaluated once over (instant, link).  A link no
        breakpoint moves is one piece for the whole run.  A run that
        starts before the memo's instant, or a memo of another window,
        starts from the window's base.  A run without a memo (a
        snapshot) reads from the window's base, and a window it moves
        spans just the run: the snapshot of every epoch searches only
        the links a breakpoint passed and holds only the pieces it
        reads.
        """
        size = times.size
        n = self.base_latency_ms.shape[1]
        lat_add = np.zeros((size, 2, n, n))
        loss_add = np.zeros((size, 2, n, n))
        window = self._piece_window(float(times[0]), float(times[-1]),
                                    0.0 if memo is None else WINDOW_S)
        memo = SegmentMemo() if memo is None else memo
        if not window.base.size:
            return lat_add, loss_add
        if memo.window is not window or times[0] < memo.t:
            memo.window, memo.t = window, -np.inf
            memo.piece = window.base.copy()
            memo.values = window.columns[:, window.base]
        crossed = window.at[window.at_t.searchsorted(memo.t, side="right"):
                            window.at_t.searchsorted(times[-1], side="right")]
        memo.t = float(times[-1])
        # Every link on its memo piece, then the links a breakpoint
        # moves on the pieces of each instant.
        t0, lat_val, lat_slope, loss_val, loss_slope = memo.values
        dt = times[:, None] - t0
        lat = lat_val + lat_slope * dt
        loss = loss_val + loss_slope * dt
        if crossed.size:
            links, column = np.unique(window.link_of[crossed],
                                      return_inverse=True)
            # A piece holds from the first instant at or after its
            # breakpoint; one before the run's first moves the base.
            starts_at = times.searchsorted(window.columns[0, crossed],
                                           side="left")
            moved = np.bincount(starts_at * links.size + column,
                                minlength=size * links.size)
            piece = memo.piece[links] + moved.reshape(
                size, links.size).cumsum(axis=0)
            t0, lat_val, lat_slope, loss_val, loss_slope = \
                window.columns[:, piece]
            dt = times[:, None] - t0
            lat[:, links] = lat_val + lat_slope * dt
            loss[:, links] = loss_val + loss_slope * dt
            memo.piece[links] = piece[-1]
            memo.values[:, links] = window.columns[:, piece[-1]]
        sel = (slice(None),) + window.sel
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
