"""Aggregate a telemetry file into the operator's one-page view.

`summarize` folds a `TelemetryFile` (or live event/metric documents)
into per-kind event counts, the traced time range, per-experiment
breakdowns, and a flattened metrics table; `render` turns that into the
aligned ASCII tables the ``repro obs summary`` CLI prints.

The renderer is self-contained (no dependency on the experiments
layer): ``repro.obs`` sits below everything it observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.export import TelemetryFile


@dataclass
class TelemetrySummary:
    """Everything ``repro obs summary`` shows about one telemetry file."""

    header: Dict[str, Any]
    total_events: int
    #: kind -> count, sorted by count descending when rendered.
    kind_counts: Dict[str, int]
    #: kind -> (first t, last t) over events that carry a sim time.
    kind_time_range: Dict[str, List[float]]
    #: experiment name -> event count (orchestrated suites only).
    exp_counts: Dict[str, int] = field(default_factory=dict)
    #: flattened metric rows: name -> {"kind", "value"/"count"/"mean"...}
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return self.total_events == 0 and not self.metrics


def summarize(doc: TelemetryFile) -> TelemetrySummary:
    kind_counts: Dict[str, int] = {}
    ranges: Dict[str, List[float]] = {}
    exp_counts: Dict[str, int] = {}
    for event in doc.events:
        kind = event.get("kind", "?")
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        t = event.get("t")
        if isinstance(t, (int, float)):
            lo_hi = ranges.get(kind)
            if lo_hi is None:
                ranges[kind] = [float(t), float(t)]
            else:
                lo_hi[0] = min(lo_hi[0], float(t))
                lo_hi[1] = max(lo_hi[1], float(t))
        exp = event.get("exp")
        if exp:
            exp_counts[exp] = exp_counts.get(exp, 0) + 1
    metrics = _merge_metric_records(doc.metrics)
    return TelemetrySummary(
        header=doc.header, total_events=len(doc.events),
        kind_counts=kind_counts, kind_time_range=ranges,
        exp_counts=exp_counts, metrics=metrics)


def _merge_metric_records(records: Sequence[Dict[str, Any]]
                          ) -> Dict[str, Dict[str, Any]]:
    """Fold registry snapshots (full or delta) into one table.

    Counters sum, gauges keep the last value, histograms merge count /
    sum / min / max *and* per-bound bucket counts.  Bucket values are
    additive in both record flavours — full snapshots from independent
    experiments add, and a stream's delta records add back up to the
    run's cumulative buckets — so the merged view supports quantile
    estimates (`_estimate_quantile`).
    """
    merged: Dict[str, Dict[str, Any]] = {}
    for record in records:
        for name, snap in (record.get("metrics") or {}).items():
            kind = snap.get("kind")
            prev = merged.get(name)
            if prev is None:
                if kind == "histogram":
                    merged[name] = {
                        "kind": kind,
                        "count": snap.get("count", 0),
                        "sum": snap.get("sum", 0.0),
                        "min": snap.get("min", 0.0),
                        "max": snap.get("max", 0.0),
                        "overflow": snap.get("overflow", 0),
                        "buckets": [[b, c] for b, c
                                    in (snap.get("buckets") or [])]}
                else:
                    merged[name] = {"kind": kind,
                                    "value": snap.get("value", 0.0)}
            elif kind == "counter":
                prev["value"] = prev.get("value", 0.0) \
                    + snap.get("value", 0.0)
            elif kind == "gauge":
                prev["value"] = snap.get("value", 0.0)
            elif kind == "histogram":
                count = snap.get("count", 0)
                if count:
                    if prev.get("count"):
                        prev["min"] = min(prev.get("min", 0.0),
                                          snap.get("min", 0.0))
                        prev["max"] = max(prev.get("max", 0.0),
                                          snap.get("max", 0.0))
                    else:
                        prev["min"] = snap.get("min", 0.0)
                        prev["max"] = snap.get("max", 0.0)
                prev["count"] = prev.get("count", 0) + count
                prev["sum"] = prev.get("sum", 0.0) + snap.get("sum", 0.0)
                prev["overflow"] = prev.get("overflow", 0) \
                    + snap.get("overflow", 0)
                by_bound = {b: c for b, c in prev.get("buckets") or []}
                for bound, seen in snap.get("buckets") or []:
                    by_bound[bound] = by_bound.get(bound, 0) + seen
                prev["buckets"] = [[b, by_bound[b]]
                                   for b in sorted(by_bound)]
    return merged


def _estimate_quantile(snap: Dict[str, Any], q: float) -> Optional[float]:
    """Bucket-resolution quantile from a (merged) histogram snapshot:
    the upper bound of the cumulative bucket holding the q-th
    observation, falling back to the observed max when the rank lands
    in the overflow bucket.  Returns None when the row carries no
    bucket detail.
    """
    count = snap.get("count", 0)
    buckets = snap.get("buckets")
    if not count or not buckets:
        return None
    rank = q * count
    for bound, seen in buckets:
        if seen >= rank:
            return float(bound)
    return float(snap.get("max", 0.0))


# ------------------------------------------------------------------ render
def _table(headers: List[str], rows: List[List[Any]],
           title: Optional[str] = None) -> List[str]:
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines: List[str] = []
    if title:
        lines += [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def _fmt(value: Any) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3f}".rstrip("0").rstrip(".")


def render(summary: TelemetrySummary, max_metrics: int = 40) -> List[str]:
    """Human-readable report lines for one telemetry summary."""
    lines: List[str] = []
    meta = {k: v for k, v in summary.header.items()
            if k not in ("record", "schema")}
    described = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    lines.append(f"telemetry schema {summary.header.get('schema')}"
                 + (f" ({described})" if described else ""))
    lines.append("")

    rows = []
    for kind in sorted(summary.kind_counts,
                       key=lambda k: (-summary.kind_counts[k], k)):
        lo_hi = summary.kind_time_range.get(kind)
        window = (f"{lo_hi[0]:,.0f}s - {lo_hi[1]:,.0f}s" if lo_hi else "-")
        rows.append([kind, summary.kind_counts[kind], window])
    lines += _table(["event kind", "count", "sim-time window"], rows,
                    title=f"events ({summary.total_events:,} total)")
    lines.append("")

    if summary.exp_counts:
        rows = [[name, count] for name, count
                in sorted(summary.exp_counts.items())]
        lines += _table(["experiment", "events"], rows,
                        title="per-experiment events")
        lines.append("")

    if summary.metrics:
        rows = []
        for name in sorted(summary.metrics)[:max_metrics]:
            snap = summary.metrics[name]
            if snap.get("kind") == "histogram":
                detail = (f"n={snap.get('count', 0):,} "
                          f"sum={_fmt(snap.get('sum', 0.0))} "
                          f"max={_fmt(snap.get('max', 0.0))}")
                quantiles = [(label, _estimate_quantile(snap, q))
                             for label, q in (("p50", 0.5), ("p95", 0.95),
                                              ("p99", 0.99))]
                if all(v is not None for _, v in quantiles):
                    detail += " " + " ".join(
                        f"{label}~{_fmt(v)}" for label, v in quantiles)
                value = (snap["sum"] / snap["count"]
                         if snap.get("count") else 0.0)
                rows.append([name, snap["kind"], _fmt(value), detail])
            else:
                rows.append([name, snap.get("kind", "?"),
                             _fmt(snap.get("value", 0.0)), ""])
        title = f"metrics ({len(summary.metrics)} registered"
        if len(summary.metrics) > max_metrics:
            title += f", first {max_metrics} shown"
        title += ")"
        lines += _table(["metric", "kind", "value", "detail"], rows,
                        title=title)
    return lines
