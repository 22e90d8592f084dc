"""Oracles of the NIB.

`store_reports` is the report-list ingest as it was written before the
array pass: one dict of tuple keys, one `LinkReport` list per layer,
one `ReportBatch` built from each layer's reports — the oracle
`NetworkInformationBase._store_reports` is tested against
(`tests/controlplane/test_nib_batch.py`).  `ReportListNIB` is the whole
NIB as per-link report lists, one report at a time, the oracle of its
queued batches and their fold.  Nothing in `src/` imports this module.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.controlplane.nib import (ROBUST_PERCENTILE, LinkReport,
                                    NetworkInformationBase, ReportBatch)
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_INDEX


def store_reports(nib: NetworkInformationBase,
                  reports: Iterable[Optional[LinkReport]]) -> None:
    """`nib._store` the reports (None = dropped on the way) as batches:
    the k-th report of every link forms the k-th one."""
    layers: List[List[LinkReport]] = []
    seen: Dict[Tuple[str, str, int], int] = {}
    for report in reports:
        if report is None:
            continue
        key = (report.src, report.dst, TYPE_INDEX[report.link_type])
        k = seen[key] = seen.get(key, -1) + 1
        if k == len(layers):
            layers.append([])
        layers[k].append(report)
    for layer in layers:
        nib._store(from_reports(layer, nib._index))


def from_reports(reports: Sequence[LinkReport],
                 index: Dict[str, int]) -> ReportBatch:
    """`reports` (of distinct links) over the regions of `index`."""
    return ReportBatch(
        tuple(index),
        np.array([index[r.src] for r in reports], dtype=np.intp),
        np.array([index[r.dst] for r in reports], dtype=np.intp),
        np.array([TYPE_INDEX[r.link_type] for r in reports], dtype=np.intp),
        np.array([r.latency_ms for r in reports], dtype=float),
        np.array([r.loss_rate for r in reports], dtype=float),
        np.array([r.reported_at for r in reports], dtype=float))


class ReportListNIB:
    """The NIB as per-link report lists, one report at a time: a report
    older than its link's newest is stale and dropped, and a link keeps
    its last `window` reports.  What the rings, the queued batches and
    their fold must serve at every read
    (`tests/controlplane/test_nib_fold.py`)."""

    def __init__(self, codes: Sequence[str], window: int):
        self.codes = list(codes)
        self.window = window
        self.version = 0
        self.history: Dict[Tuple[str, str, str], List[LinkReport]] = {}

    def store(self, report: LinkReport) -> None:
        kept = self.history.setdefault(
            (report.src, report.dst, report.link_type.value), [])
        if kept and report.reported_at < kept[-1].reported_at:
            return
        kept.append(report)
        del kept[:-self.window]
        self.version += 1

    def __len__(self) -> int:
        return len(self.history)

    def snapshot(self, codes: Sequence[str], robust: bool
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """(latency, loss) matrices over `codes`: each link's last
        report, or `ROBUST_PERCENTILE` of its window; (inf, 1) when it
        has none."""
        n = len(codes)
        lat, loss = np.full((2, n, n), np.inf), np.ones((2, n, n))
        column = {code: i for i, code in enumerate(codes)}
        for (src, dst, tier), kept in self.history.items():
            k = TYPE_INDEX[LinkType(tier)]
            if robust:
                lat[k, column[src], column[dst]] = np.percentile(
                    [r.latency_ms for r in kept], ROBUST_PERCENTILE)
                loss[k, column[src], column[dst]] = np.percentile(
                    [r.loss_rate for r in kept], ROBUST_PERCENTILE)
            else:
                lat[k, column[src], column[dst]] = kept[-1].latency_ms
                loss[k, column[src], column[dst]] = kept[-1].loss_rate
        return lat, loss

    def export_reports(self) -> List[Dict[str, object]]:
        """`NetworkInformationBase.export_reports`'s documents."""
        return [{"src": r.src, "dst": r.dst, "link_type": r.link_type.value,
                 "latency_ms": r.latency_ms, "loss_rate": r.loss_rate,
                 "reported_at": r.reported_at}
                for key in sorted(self.history)
                for r in self.history[key]]
