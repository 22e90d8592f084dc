"""The report-fault seam one report at a time: the oracle of the array pass.

`FaultInjector.filter_report` decides a whole `ReportBatch` in one pass
of match masks, and `NetworkInformationBase._filtered_batch` traces what
it did.  Before that, the NIB asked the injector which rows a window
matched, rebuilt each such row as a `LinkReport`, filtered it alone and
traced it alone.  That loop is kept here, as it ran, to pin the array
pass to it (`test_report_seam.py`): the same rows lost and aged, to the
same times, the same `FaultCounters`, and the same telemetry events in
the same order.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

import numpy as np

from repro.controlplane.nib import LinkReport, ReportBatch
from repro.faults.runtime import FaultInjector
from repro.faults.spec import FaultKind, FaultSpec
from repro.obs import telemetry
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_ORDER


def report_at(batch: ReportBatch, k: int) -> LinkReport:
    """Row `k` of `batch` as a `LinkReport`."""
    return LinkReport(batch.codes[batch.src[k]], batch.codes[batch.dst[k]],
                      TYPE_ORDER[batch.tier[k]], float(batch.latency_ms[k]),
                      float(batch.loss_rate[k]), float(batch.reported_at[k]))


def reports_of(batch: ReportBatch) -> List[LinkReport]:
    """Every row of `batch` as a `LinkReport`, in order."""
    return [report_at(batch, k) for k in range(len(batch))]


def matches_link(spec: FaultSpec, src: str, dst: str,
                 link_type: LinkType) -> bool:
    """Whether `spec`'s scope (source region, destination, tier; each
    None for any) covers one directed link."""
    return (spec.matches_region(src)
            and (spec.dst is None or spec.dst == dst)
            and (spec.link_type is None or spec.link_type is link_type))


def reports_matched(injector: FaultInjector, batch: ReportBatch) -> List[int]:
    """Positions of the reports a report-drop or -staleness window,
    active at one of the batch's instants, matches."""
    specs = [spec for t in set(batch.reported_at.tolist())
             for spec in injector._report_specs if spec.active(t)]
    if not specs:
        return []
    codes = batch.codes
    links = zip(batch.src.tolist(), batch.dst.tolist(), batch.tier.tolist())
    return [k for k, (i, j, tier) in enumerate(links)
            if any(matches_link(spec, codes[i], codes[j], TYPE_ORDER[tier])
                   for spec in specs)]


def filter_report(injector: FaultInjector,
                  report: LinkReport) -> Optional[LinkReport]:
    """One report through the faults: None when lost, a copy with its
    time moved back when aged, the report itself when untouched."""
    now = report.reported_at
    for spec in injector._by_kind[FaultKind.REPORT_DROP]:
        if spec.active(now) and matches_link(
                spec, report.src, report.dst, report.link_type):
            link = f"{report.src}->{report.dst}.{report.link_type.value}"
            if injector._fires(spec, link, now):
                injector.counters.reports_dropped += 1
                return None
    for spec in injector._by_kind[FaultKind.REPORT_STALENESS]:
        if spec.active(now) and matches_link(
                spec, report.src, report.dst, report.link_type):
            injector.counters.reports_staled += 1
            return replace(report, reported_at=max(
                0.0, report.reported_at - spec.staleness_s))
    return report


def filtered_batch(injector: FaultInjector,
                   batch: ReportBatch) -> ReportBatch:
    """`batch` as the seam let it through, traced report by report."""
    tel = telemetry()
    touched = reports_matched(injector, batch)
    if not touched:
        return batch
    dropped = []
    lat, loss, at = (batch.latency_ms.copy(), batch.loss_rate.copy(),
                     batch.reported_at.copy())
    for k in touched:
        report = report_at(batch, k)
        filtered = filter_report(injector, report)
        if filtered is None:
            if tel.enabled:
                tel.counter("fault.reports_dropped").inc()
                tel.event("fault_report_drop", t=report.reported_at,
                          src=report.src, dst=report.dst,
                          link=report.link_type)
            dropped.append(k)
            continue
        if filtered is not report and tel.enabled:
            tel.counter("fault.reports_staled").inc()
            tel.event("fault_report_stale", t=report.reported_at,
                      src=report.src, dst=report.dst,
                      link=report.link_type,
                      staled_to=filtered.reported_at)
        lat[k], loss[k], at[k] = (filtered.latency_ms, filtered.loss_rate,
                                  filtered.reported_at)
    batch = ReportBatch(batch.codes, batch.src, batch.dst, batch.tier, lat,
                        loss, at)
    if not dropped:
        return batch
    kept = np.ones(len(batch), dtype=bool)
    kept[dropped] = False
    return batch.take(kept)
