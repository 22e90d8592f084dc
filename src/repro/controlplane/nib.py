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
report time, and a probing round's reports arrive as one `ReportBatch`
written by fancy index.  The NIB is read two ways only: the controller
takes a whole-matrix `LinkStateSnapshot` per epoch (`latest_snapshot`
or `robust_snapshot`), and a checkpoint takes every windowed report as
JSON (`export_reports`, the one place `LinkReport`s are rebuilt from the
rings).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import repeat
from operator import is_
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import telemetry as _telemetry
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_INDEX, TYPE_ORDER, LinkStateSnapshot

_TEL = _telemetry()

#: The window percentile robust planning reads (`robust_snapshot`).
ROBUST_PERCENTILE = 90.0


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


@dataclass(eq=False)
class ReportBatch:
    """Monitoring reports of *distinct* directed links, as arrays.

    Row k reports the link ``codes[src[k]] -> codes[dst[k]]`` of tier
    ``TYPE_ORDER[tier[k]]``.  Sized, and falsy when empty; iterating or
    indexing builds the `LinkReport`s for consumers that want objects.
    """

    codes: Tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    tier: np.ndarray
    latency_ms: np.ndarray
    loss_rate: np.ndarray
    reported_at: np.ndarray

    def __post_init__(self) -> None:
        # `LinkReport`'s range checks, once over the arrays (a NaN
        # minimum fails them).
        if len(self) and (not self.latency_ms.min() >= 0 or not (
                0.0 <= self.loss_rate.min() and self.loss_rate.max() <= 1.0)):
            raise ValueError("a report has a negative or NaN latency, or "
                             "a loss rate outside [0, 1]")

    def __len__(self) -> int:
        return len(self.latency_ms)

    def take(self, rows) -> "ReportBatch":
        """The reports at `rows` (a slice, positions or a mask)."""
        return ReportBatch(self.codes, self.src[rows], self.dst[rows],
                           self.tier[rows], self.latency_ms[rows],
                           self.loss_rate[rows], self.reported_at[rows])

    def __getitem__(self, k: int) -> LinkReport:
        return LinkReport(self.codes[self.src[k]], self.codes[self.dst[k]],
                          TYPE_ORDER[self.tier[k]],
                          float(self.latency_ms[k]),
                          float(self.loss_rate[k]),
                          float(self.reported_at[k]))


class NetworkInformationBase:
    """Recent link states for every directed link, plus pricing handles."""

    def __init__(self, codes: Sequence[str], window: int = 1):
        """The ring-buffer matrices are allocated once, over the region
        set `codes` (the controller's own); a report naming a region
        outside it is a `ValueError`."""
        if window < 1:
            raise ValueError(f"window must be >= 1 report, got {window}")
        self.window = int(window)
        #: Monotonic mutation counter: bumps on every accepted report,
        #: so equal versions guarantee identical snapshot outputs.
        self.version = 0
        #: Region code <-> row/column of the ring matrices.
        self._codes: List[str] = list(codes)
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
        #: Fault-injection seam: an object (a `FaultInjector`) whose
        #: `filter_report` maps a report to itself, a staled copy or
        #: None (dropped), and whose `reports_matched` names the reports
        #: of a batch it would touch.  None = no faults.
        self.fault_filter = None

    # -------------------------------------------------------------- storage
    def _unknown(self, codes: Iterable[str]) -> ValueError:
        outside = sorted(set(codes) - set(self._index))
        return ValueError(f"regions {outside} are outside the NIB's "
                          f"{self._codes}")

    def _store(self, batch: ReportBatch) -> None:
        """Write a batch into the rings; a report older than its link's
        newest is stale, out of order, and dropped."""
        rows = self._rows.get(batch.codes)
        if rows is None:
            rows = self._rows[batch.codes] = np.array(
                [self._index.get(c, -1) for c in batch.codes], dtype=np.intp)
        ti, i, j = batch.tier, rows[batch.src], rows[batch.dst]
        if min(i.min(initial=0), j.min(initial=0)) < 0:
            raise self._unknown(batch.codes[k] for k in np.concatenate(
                [batch.src[i < 0], batch.dst[j < 0]]).tolist())
        lat, loss, at = batch.latency_ms, batch.loss_rate, batch.reported_at
        total = self._ring_total[ti, i, j]
        slot = total % self.window
        # Slot -1 is the last one: NaN, never older, until it is filled.
        stale = at < self._ring_at[ti, i, j, slot - 1]
        if stale.any():
            ti, i, j, total, slot, lat, loss, at = (
                column[~stale]
                for column in (ti, i, j, total, slot, lat, loss, at))
        self.version += len(slot)
        self._ring_lat[ti, i, j, slot] = lat
        self._ring_loss[ti, i, j, slot] = loss
        self._ring_at[ti, i, j, slot] = at
        self._ring_total[ti, i, j] = total + 1

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

        The fault seam is consulted once per batch, and a batch goes to
        the rings as arrays: exactly the reports a report fault touches
        pass through `filter_report`, in order; a dropped one leaves the
        batch, a staled one keeps its shifted values.
        """
        if isinstance(reports, ReportBatch):
            touched = (self.fault_filter.reports_matched(reports)
                       if self.fault_filter is not None else ())
            if touched:
                reports = self._filtered_batch(reports, touched)
            self._store(reports)
            return
        if self.fault_filter is not None:
            reports = [self._filtered(report) for report in reports]
        self._store_reports(reports)

    def _store_reports(self, reports: Iterable[Optional[LinkReport]]
                       ) -> None:
        """`_store` the reports (None = dropped on the way) as batches:
        the k-th report of every link forms the k-th one, so links are
        distinct inside a batch and a link's reports keep their order.

        Each column is built once, and a report's batch is its rank
        among its link's reports: one stable sort over integer link
        keys.
        """
        kept = [report for report in reports if report is not None]
        if not kept:
            return
        size = len(kept)
        src = [report.src for report in kept]
        dst = [report.dst for report in kept]
        try:
            src_i, dst_i = self._indices(src, size), self._indices(dst, size)
        except KeyError:
            raise self._unknown(src + dst) from None
        # An identity test per report: hashing an enum member is slow.
        premium = np.fromiter(map(is_, [report.link_type for report in kept],
                                  repeat(LinkType.PREMIUM)), bool, size)
        batch = ReportBatch(
            tuple(self._codes), src_i, dst_i,
            np.where(premium, TYPE_INDEX[LinkType.PREMIUM],
                     TYPE_INDEX[LinkType.INTERNET]),
            np.array([report.latency_ms for report in kept], dtype=float),
            np.array([report.loss_rate for report in kept], dtype=float),
            np.array([report.reported_at for report in kept], dtype=float))
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
        position = np.arange(size)
        starts = np.maximum.accumulate(
            np.where(np.concatenate(([False], repeated)), 0, position))
        layer = np.empty(size, dtype=np.intp)
        layer[order] = position - starts
        for k in range(int(layer.max()) + 1):
            self._store(batch.take(layer == k))

    def _indices(self, codes: List[str], size: int) -> np.ndarray:
        """The index of each of `codes` (a `KeyError` names one the
        index lacks)."""
        return np.fromiter(map(self._index.__getitem__, codes), np.intp,
                           size)

    def _filtered_batch(self, batch: ReportBatch,
                        touched: Sequence[int]) -> ReportBatch:
        """`batch` with its rows at `touched` as the fault seam lets
        them through."""
        kept = np.ones(len(batch), dtype=bool)
        lat, loss, at = (batch.latency_ms.copy(), batch.loss_rate.copy(),
                         batch.reported_at.copy())
        for k in touched:
            report = self._filtered(batch[k])
            if report is None:
                kept[k] = False
            else:
                lat[k], loss[k], at[k] = (report.latency_ms,
                                          report.loss_rate,
                                          report.reported_at)
        return ReportBatch(batch.codes, batch.src, batch.dst, batch.tier,
                           lat, loss, at).take(kept)

    def _filtered(self, report: LinkReport) -> Optional[LinkReport]:
        """`report` as the fault seam lets it through (traced)."""
        filtered = self.fault_filter.filter_report(report)
        if filtered is None:
            if _TEL.enabled:
                _TEL.counter("fault.reports_dropped").inc()
                _TEL.event("fault_report_drop", t=report.reported_at,
                           src=report.src, dst=report.dst,
                           link=report.link_type)
        elif filtered is not report and _TEL.enabled:
            _TEL.counter("fault.reports_staled").inc()
            _TEL.event("fault_report_stale", t=report.reported_at,
                       src=report.src, dst=report.dst,
                       link=report.link_type,
                       staled_to=filtered.reported_at)
        return filtered

    # --------------------------------------------------- matrix snapshots
    def latest_snapshot(self, codes: Sequence[str]) -> LinkStateSnapshot:
        """Latest-report matrices over `codes`; missing links (inf, 1)."""
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
        self._store_reports(
            LinkReport(src=doc["src"], dst=doc["dst"],
                       link_type=LinkType(doc["link_type"]),
                       latency_ms=float(doc["latency_ms"]),
                       loss_rate=float(doc["loss_rate"]),
                       reported_at=float(doc["reported_at"]))
            for doc in docs)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._ring_total))
