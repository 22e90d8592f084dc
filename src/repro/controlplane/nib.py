"""Network Information Base (NIB).

The NIB stores network-level information (§3): per-directed-link states
(latency, loss) reported by gateway monitoring, and link pricing fetched
from the cloud platform.  The controller reads a consistent snapshot when
it computes forwarding tables.

Beyond the latest report, the NIB can keep a short *window* of reports
per link and serve robust state estimates: planning against a link's
recent `ROBUST_PERCENTILE` (p90) loss instead of its last sample avoids
routing onto links that merely look good this instant — a standard
flap-damping technique the stability ablation quantifies.  The window
length is the only choice: the controller plans on the last report
when it is 1 and on the percentile otherwise.

Storage is the matrices and nothing else: report histories live in
preallocated ``(2, N, N, window)`` ring-buffer arrays (axis 0 is the
tier per `repro.underlay.snapshot.TYPE_ORDER`) of latency, loss and
report time.  A probing round's reports arrive as one `ReportBatch`,
every 0.4 s, but the NIB is read at epoch boundaries only: the
controller takes a whole-matrix `LinkStateSnapshot` per epoch
(`latest_snapshot` or `robust_snapshot`), and a checkpoint takes every
windowed report as JSON (`export_reports`, the one place `LinkReport`s
are rebuilt from the rings).  So an arriving batch passes the fault
seam and is queued as it is, and the queue folds into the rings in one
pass over all its batches on the next read (`len`, `version`, either
snapshot, the export, a list of reports) or once it spans
`FOLD_SLOTS`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat
from operator import is_
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import telemetry as _telemetry
from repro.obs.metrics import HotCounters
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_INDEX, TYPE_ORDER, LinkStateSnapshot

_TEL = _telemetry()
_DROPPED = HotCounters("fault.reports_dropped")
_STALED = HotCounters("fault.reports_staled")

#: The window percentile robust planning reads (`robust_snapshot`).
ROBUST_PERCENTILE = 90.0

#: The queued report batches fold into the rings once they span this
#: many (batch, link) slots.  It bounds the fold's working set, and with
#: it the reports the NIB holds unfolded: a batch reports a link at most
#: once, so they never outnumber their slots.
FOLD_SLOTS = 1 << 18


@dataclass(frozen=True)
class LinkReport:
    """One monitoring report for a directed link of one type."""

    src: str
    dst: str
    link_type: LinkType
    latency_ms: float
    loss_rate: float
    reported_at: float

    def __post_init__(self) -> None:
        if not self.latency_ms >= 0:
            raise ValueError(f"negative latency or NaN: {self.latency_ms}")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss rate {self.loss_rate} outside [0, 1]")
        if not math.isfinite(self.reported_at):
            raise ValueError(f"report time {self.reported_at} is not finite")


@dataclass(eq=False)
class ReportBatch:
    """Monitoring reports of *distinct* directed links, as arrays.

    Row k reports the link ``codes[src[k]] -> codes[dst[k]]`` of tier
    ``TYPE_ORDER[tier[k]]``.  Sized, and falsy when empty.
    """

    codes: Tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    tier: np.ndarray
    latency_ms: np.ndarray
    loss_rate: np.ndarray
    reported_at: np.ndarray

    #: What a batch that fails the range checks raises.
    OUT_OF_RANGE = ("a report has a negative or NaN latency, a loss rate "
                    "outside [0, 1] or a time that is not finite")

    def __post_init__(self) -> None:
        # `LinkReport`'s range checks, once over the arrays (a NaN
        # minimum or maximum fails them).
        if len(self) and not (
                self.latency_ms.min() >= 0
                and 0.0 <= self.loss_rate.min()
                and self.loss_rate.max() <= 1.0
                and -math.inf < self.reported_at.min()
                and self.reported_at.max() < math.inf):
            raise ValueError(self.OUT_OF_RANGE)

    @classmethod
    def _checked(cls, codes: Tuple[str, ...], *columns: np.ndarray
                ) -> "ReportBatch":
        """A batch of columns that passed the range checks already
        (rows of a checked batch, values of checked reports, the
        columns `ProbingGroupManager.aggregate` checked), built without
        running them again."""
        batch = object.__new__(cls)
        (batch.codes, batch.src, batch.dst, batch.tier, batch.latency_ms,
         batch.loss_rate, batch.reported_at) = (codes,) + columns
        return batch

    def __len__(self) -> int:
        return len(self.latency_ms)

    def take(self, rows) -> "ReportBatch":
        """The reports at `rows` (a slice, positions or a mask)."""
        return ReportBatch._checked(self.codes, self.src[rows],
                                   self.dst[rows], self.tier[rows],
                                   self.latency_ms[rows],
                                   self.loss_rate[rows],
                                   self.reported_at[rows])


def _trace_faults(batch: ReportBatch, dropped: np.ndarray,
                  staled: np.ndarray, shifted: np.ndarray) -> None:
    """The events and counters of the report faults on `batch`."""
    codes = batch.codes
    src, dst, tier = batch.src.tolist(), batch.dst.tolist(), batch.tier.tolist()
    at, lost = batch.reported_at.tolist(), dropped.tolist()
    for k in np.flatnonzero(dropped | staled).tolist():
        if lost[k]:
            _TEL.event("fault_report_drop", t=at[k], src=codes[src[k]],
                       dst=codes[dst[k]], link=TYPE_ORDER[tier[k]])
        else:
            _TEL.event("fault_report_stale", t=at[k], src=codes[src[k]],
                       dst=codes[dst[k]], link=TYPE_ORDER[tier[k]],
                       staled_to=float(shifted[k]))
    for counter, rows in ((_DROPPED, dropped), (_STALED, staled)):
        count = int(np.count_nonzero(rows))
        if count:
            counter.fetch(_TEL.metrics)[0].inc(count)


class NetworkInformationBase:
    """Recent link states for every directed link, plus pricing handles."""

    def __init__(self, codes: Sequence[str], window: int = 1):
        """The ring-buffer matrices are allocated once, over the region
        set `codes` (the controller's own); a report naming a region
        outside it is a `ValueError`."""
        if window < 1:
            raise ValueError(f"window must be >= 1 report, got {window}")
        self.window = int(window)
        self._version = 0
        #: Region code <-> row/column of the ring matrices.
        self._codes: List[str] = list(codes)
        self._own = tuple(self._codes)
        self._index: Dict[str, int] = {c: i for i, c in enumerate(codes)}
        if len(self._index) != len(self._codes):
            raise ValueError(f"duplicate region codes: {self._codes}")
        n = len(self._codes)
        self._ring_lat = np.full((2, n, n, self.window), np.nan)
        self._ring_loss = np.full((2, n, n, self.window), np.nan)
        self._ring_at = np.full((2, n, n, self.window), np.nan)
        #: Reports accepted per link, ever: the k-th sits in slot
        #: ``k % window``, and the last ``min(total, window)`` are kept.
        self._ring_total = np.zeros((2, n, n), dtype=np.int64)
        #: A batch's `codes` -> their rows in the ring matrices (-1 for
        #: a region outside them).
        self._rows: Dict[Tuple[str, ...], np.ndarray] = {}
        #: Batches over `_own` waiting to be folded into the rings, in
        #: arrival order.
        self._pending: List[ReportBatch] = []
        #: The last (src, dst, tier) columns seen and their ring links.
        self._link_memo: Optional[Tuple[np.ndarray, ...]] = None
        #: Fault-injection seam: an object (a `FaultInjector`) whose
        #: `filter_report` says which reports of a batch are lost and
        #: which aged, and to what time (None: no window open).  None =
        #: no faults.
        self.fault_filter = None

    # -------------------------------------------------------------- storage
    def _unknown(self, codes: Iterable[str]) -> ValueError:
        outside = sorted(set(codes) - set(self._index))
        return ValueError(f"regions {outside} are outside the NIB's "
                          f"{self._codes}")

    def _append(self, batch: ReportBatch) -> None:
        """Queue a batch for the rings, in the NIB's region index (a
        report naming a region outside it is an error here, not at the
        fold)."""
        if batch.codes != self._own:
            rows = self._rows.get(batch.codes)
            if rows is None:
                rows = self._rows[batch.codes] = np.array(
                    [self._index.get(c, -1) for c in batch.codes],
                    dtype=np.intp)
            i, j = rows[batch.src], rows[batch.dst]
            if min(i.min(initial=0), j.min(initial=0)) < 0:
                raise self._unknown(batch.codes[k] for k in np.concatenate(
                    [batch.src[i < 0], batch.dst[j < 0]]).tolist())
            batch = ReportBatch._checked(
                self._own, i, j, batch.tier, batch.latency_ms,
                batch.loss_rate, batch.reported_at)
        if len(batch):
            self._pending.append(batch)
            if len(self._pending) * self._ring_total.size >= FOLD_SLOTS:
                self._fold()

    def _store(self, *batches: ReportBatch) -> None:
        """Write `batches` into the rings now, in order."""
        for batch in batches:
            self._append(batch)
        self._fold()

    def _ring_links(self, batch: ReportBatch) -> np.ndarray:
        """The ring link (flat ``(tier, src, dst)`` cell) of each report
        of a queued batch, made once for a run of batches that share
        their link columns (a probing round's, between blackouts)."""
        memo = self._link_memo
        if not (memo and memo[0] is batch.src and memo[1] is batch.dst
                and memo[2] is batch.tier):
            n = len(self._codes)
            memo = self._link_memo = (
                batch.src, batch.dst, batch.tier,
                (batch.tier * n + batch.src) * n + batch.dst)
        return memo[3]

    def _fold(self) -> None:
        """Fold the queued batches into the rings in one pass, leaving
        what storing them one at a time would: a report older than its
        link's newest stored one is stale, out of order, and dropped;
        the others take the link's next slots, and the last `window`
        of them stay.

        Batch k's reports go to row k of ``(batches, links)`` grids
        (time NaN where it has no report).  Down the rows, a running
        maximum from each link's newest stored time (-inf for none)
        finds the accepted reports and a running count their order,
        row by row: numpy's column-wise accumulations are slow on wide
        grids.  Only each link's last `window` accepted reports are
        written.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        window, links, rows = self.window, self._ring_total.size, len(pending)
        grid = np.concatenate([self._ring_links(batch) for batch in pending])
        grid += np.repeat(np.arange(0, rows * links, links),
                          [len(batch) for batch in pending])
        times = np.full((rows, links), np.nan)
        lat, loss = np.empty((rows, links)), np.empty((rows, links))
        for values, name in ((times, "reported_at"), (lat, "latency_ms"),
                             (loss, "loss_rate")):
            values.reshape(-1)[grid] = np.concatenate(
                [getattr(batch, name) for batch in pending])
        total = self._ring_total.reshape(links)
        newest = np.fmax(self._ring_at.reshape(links, window)[
            np.arange(links), (total - 1) % window], -np.inf)
        accepted = np.empty((rows, links), dtype=bool)
        rank = np.empty((rows, links), dtype=np.int32)
        count = np.zeros(links, dtype=np.int32)
        for row, flags, place in zip(times, accepted, rank):
            np.greater_equal(row, newest, flags)
            np.fmax(newest, row, newest)
            np.add(count, flags, count)
            place[...] = count
        kept = np.flatnonzero(accepted & (rank > count - window))
        cell = kept % links
        cell = cell * window + (total[cell] + rank.reshape(-1)[kept] - 1
                                ) % window
        for ring, values in ((self._ring_lat, lat), (self._ring_loss, loss),
                             (self._ring_at, times)):
            ring.reshape(-1)[cell] = values.reshape(-1)[kept]
        total += count
        self._version += int(count.sum())

    def _links(self) -> List[Tuple[int, int, int]]:
        """Ring index of every link that has a report."""
        return [tuple(link) for link in
                np.argwhere(self._ring_total).tolist()]

    def _history(self, link: Tuple[int, int, int]) -> List[LinkReport]:
        """The windowed reports of ring index `link`, oldest first."""
        (ti, i, j), total = link, int(self._ring_total[link])
        rings = (self._ring_lat, self._ring_loss, self._ring_at)
        return [LinkReport(self._codes[i], self._codes[j], TYPE_ORDER[ti],
                           *(float(ring[ti, i, j, k % self.window])
                             for ring in rings))
                for k in range(max(total - self.window, 0), total)]

    # ------------------------------------------------------------------ api
    def update_many(self, reports: Union[ReportBatch, Iterable[LinkReport]]
                    ) -> None:
        """Ingest a probing round's `ReportBatch`, or any sequence of
        `LinkReport`s (each link's reports apply in sequence order).

        A list becomes one batch, in order.  The fault seam is consulted
        once per batch, as it arrives (`_filtered_batch`): a dropped
        report leaves the batch, a staled one keeps its shifted time.
        A probing round's batch then waits for the next fold, as it is:
        its arrays must not change after the call.  A list is folded at
        once.
        """
        probed = isinstance(reports, ReportBatch)
        batch = reports if probed else self._batch_of(list(reports))
        if self.fault_filter is not None:
            batch = self._filtered_batch(batch)
        if probed:
            self._append(batch)
        else:
            self._store_layers(batch)

    def _batch_of(self, reports: List[LinkReport]) -> ReportBatch:
        """The reports as one batch, in order: each column built once."""
        size = len(reports)
        src = [report.src for report in reports]
        dst = [report.dst for report in reports]
        try:
            src_i, dst_i = self._indices(src, size), self._indices(dst, size)
        except KeyError:
            raise self._unknown(src + dst) from None
        # An identity test per report: hashing an enum member is slow.
        premium = np.fromiter(map(is_, [report.link_type
                                        for report in reports],
                                  repeat(LinkType.PREMIUM)), bool, size)
        return ReportBatch(
            self._own, src_i, dst_i,
            np.where(premium, TYPE_INDEX[LinkType.PREMIUM],
                     TYPE_INDEX[LinkType.INTERNET]),
            np.array([report.latency_ms for report in reports], dtype=float),
            np.array([report.loss_rate for report in reports], dtype=float),
            np.array([report.reported_at for report in reports], dtype=float))

    def _store_layers(self, batch: ReportBatch) -> None:
        """`_store` a batch after the queued ones as layers: the k-th
        report of every link forms the k-th, so links are distinct
        inside a layer and a link's reports keep their order.

        A report's layer is its rank among its link's reports: one
        stable sort over integer link keys.
        """
        n = len(self._codes)
        key = (batch.tier * n + batch.src) * n + batch.dst
        order = np.argsort(key, kind="stable")
        ranked = key[order]
        repeated = ranked[1:] == ranked[:-1]
        if not repeated.any():
            self._store(batch)  # every link once: one batch
            return
        # Rank within the link: position in the sorted run minus the
        # position where the link's run starts.
        position = np.arange(len(batch))
        starts = np.maximum.accumulate(
            np.where(np.concatenate(([False], repeated)), 0, position))
        layer = np.empty(len(batch), dtype=np.intp)
        layer[order] = position - starts
        self._store(*(batch.take(layer == k)
                      for k in range(int(layer.max()) + 1)))

    def _indices(self, codes: List[str], size: int) -> np.ndarray:
        """The index of each of `codes` (a `KeyError` names one the
        index lacks)."""
        return np.fromiter(map(self._index.__getitem__, codes), np.intp,
                           size)

    def _filtered_batch(self, batch: ReportBatch) -> ReportBatch:
        """`batch` as the fault seam lets it through, traced: one
        ``fault_report_drop`` or ``fault_report_stale`` event per touched
        report, in report order."""
        faults = self.fault_filter.filter_report(batch)
        if faults is None:
            return batch
        dropped, staled, shifted = faults
        if _TEL.enabled:
            _trace_faults(batch, dropped, staled, shifted)
        if staled.any():
            batch = ReportBatch._checked(batch.codes, batch.src, batch.dst,
                                         batch.tier, batch.latency_ms,
                                         batch.loss_rate, shifted)
        return batch.take(~dropped) if dropped.any() else batch

    # --------------------------------------------------- matrix snapshots
    def latest_snapshot(self, codes: Sequence[str]) -> LinkStateSnapshot:
        """Latest-report matrices over `codes`; missing links (inf, 1)."""
        self._fold()
        last = (self._ring_total - 1) % self.window
        lat = np.take_along_axis(self._ring_lat, last[..., None],
                                 axis=3)[..., 0]
        loss = np.take_along_axis(self._ring_loss, last[..., None],
                                  axis=3)[..., 0]
        never = self._ring_total == 0
        return self._project(codes, lat, loss, never)

    def robust_snapshot(self, codes: Sequence[str]) -> LinkStateSnapshot:
        """Whole-matrix percentile state over every link's window.

        Each link's `ROBUST_PERCENTILE` over its filled window slots
        (with window == 1, its latest report), as one ``nanpercentile``
        over the ring-buffer arrays; never-reported links are (inf, 1).
        """
        self._fold()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            lat = np.nanpercentile(self._ring_lat, ROBUST_PERCENTILE, axis=3)
            loss = np.nanpercentile(self._ring_loss, ROBUST_PERCENTILE,
                                    axis=3)
        never = self._ring_total == 0
        return self._project(codes, lat, loss, never)

    def _project(self, codes: Sequence[str], lat_src: np.ndarray,
                 loss_src: np.ndarray, never: np.ndarray) -> LinkStateSnapshot:
        """Gather internal-index matrices into the requested code order."""
        try:
            ids = [self._index[c] for c in codes]
        except KeyError:
            raise self._unknown(codes) from None
        ix = np.ix_((0, 1), ids, ids)
        missing = never[ix]
        return LinkStateSnapshot(codes, np.where(missing, np.inf, lat_src[ix]),
                                 np.where(missing, 1.0, loss_src[ix]))

    # ------------------------------------------------------------ checkpoint
    def export_reports(self) -> List[Dict[str, object]]:
        """Every windowed report as JSON documents (checkpoint format).

        Links are emitted in sorted key order, each link's window oldest
        first, so the export is deterministic for a given NIB state.
        """
        self._fold()
        codes = self._codes
        return [{"src": report.src, "dst": report.dst,
                 "link_type": report.link_type.value,
                 "latency_ms": report.latency_ms,
                 "loss_rate": report.loss_rate,
                 "reported_at": report.reported_at}
                for link in sorted(self._links(), key=lambda k: (
                    codes[k[1]], codes[k[2]], TYPE_ORDER[k[0]].value))
                for report in self._history(link)]

    def import_reports(self, docs: List[Dict[str, object]]) -> None:
        """Replay exported reports into this NIB (warm restart).

        Past the fault filter — a checkpoint restore is a local disk
        read, not a network report delivery, so injected report faults
        must not reapply to it.
        """
        self._store_layers(self._batch_of([
            LinkReport(src=doc["src"], dst=doc["dst"],
                       link_type=LinkType(doc["link_type"]),
                       latency_ms=float(doc["latency_ms"]),
                       loss_rate=float(doc["loss_rate"]),
                       reported_at=float(doc["reported_at"]))
            for doc in docs]))

    def __len__(self) -> int:
        self._fold()
        return int(np.count_nonzero(self._ring_total))

    @property
    def version(self) -> int:
        """Monotonic mutation counter: the reports accepted so far, so
        equal versions guarantee identical snapshot outputs."""
        self._fold()
        return self._version
