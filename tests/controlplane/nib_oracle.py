"""The NIB's report-list ingest as it was written before the array
pass: one dict of tuple keys, one `LinkReport` list per layer, one
`ReportBatch` built from each layer's reports.  Kept as the oracle
`NetworkInformationBase._store_reports` is tested against
(`tests/controlplane/test_nib_batch.py`).  Nothing in `src/` imports
this module.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.controlplane.nib import (LinkReport, NetworkInformationBase,
                                    ReportBatch)
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
