"""Exports: per-figure CSV series and structured run manifests.

Reviewers and downstream users want the raw series behind each figure,
not just our rendered tables.  `write_csv(result, directory)` is a
single-dispatch exporter: every result type that carries plottable data
registers an extractor, and unknown types export nothing (returning an
empty list) rather than failing — the benchmark harness calls it for
every experiment.

`write_manifest(records, path)` serialises an orchestrated run — one
JSON object per experiment with status, wall-clock, retries, seed,
output lines, and traceback — as the artifact CI uploads and diffs
across runs (keys sorted, schema versioned).
"""

from __future__ import annotations

import csv
import json
import platform
from functools import singledispatch
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.ablation_weights import WeightSweep
from repro.experiments.fig01_02_linkstates import LinkStateFigures
from repro.experiments.fig05_demand import DemandFigure
from repro.experiments.fig12_prediction import PredictionFigure
from repro.experiments.fig16_casestudies import CaseStudies
from repro.experiments.fig17_cost import CostAnalysis
from repro.experiments.fig20_scaling import ScalingComparison
from repro.experiments.tab23_network import NetworkTables


def _write(path: Path, columns: Dict[str, Sequence]) -> Path:
    """Write named columns (equal length) as one CSV file."""
    lengths = {len(v) for v in columns.values()}
    if len(lengths) != 1:
        raise ValueError("column lengths differ: "
                         f"{ {k: len(v) for k, v in columns.items()} }")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns.keys())
        writer.writerows(zip(*columns.values()))
    return path


#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 1


def write_manifest(records: Sequence, path, *, suite: str = "quick",
                   mode: str = "sequential", workers: int = 1,
                   total_wall_s: float = 0.0,
                   rollup: Optional[Dict] = None,
                   telemetry_path: Optional[str] = None) -> Path:
    """Write the structured JSON manifest for one orchestrated run.

    ``records`` is a sequence of ``orchestrator.RunRecord``-shaped
    objects (anything with ``status`` and ``to_json()``).  The document
    is deterministic apart from measured timings: keys are sorted and
    experiments keep registry order, so two manifests diff cleanly.

    ``rollup`` (a ``repro.obs`` metrics snapshot aggregated over the
    suite, see ``orchestrator.rollup_records``) and ``telemetry_path``
    (where the run's telemetry JSONL went) are additive keys — schema 1
    consumers that ignore unknown keys keep working.
    """
    statuses = [r.status for r in records]
    payload = {
        "schema": MANIFEST_SCHEMA,
        "suite": suite,
        "mode": mode,
        "workers": workers,
        "python": platform.python_version(),
        "total_wall_s": round(total_wall_s, 3),
        "counts": {status: statuses.count(status)
                   for status in sorted(set(statuses))},
        "experiments": [r.to_json() for r in records],
    }
    if rollup is not None:
        payload["rollup"] = rollup
    if telemetry_path is not None:
        payload["telemetry"] = str(telemetry_path)
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


@singledispatch
def write_csv(result, directory, prefix: str) -> List[Path]:
    """Export `result`'s plottable data, into files whose names start
    with `prefix` (each registered type has its own default); no-op for
    unregistered types."""
    return []


@write_csv.register
def _(result: LinkStateFigures, directory, prefix="fig01_02") -> List[Path]:
    directory = Path(directory)
    return [
        _write(directory / f"{prefix}_averages.csv", {
            "time_s": result.times,
            "internet_latency_ms": result.avg_latency_internet,
            "premium_latency_ms": result.avg_latency_premium,
            "internet_loss": result.avg_loss_internet,
            "premium_loss": result.avg_loss_premium}),
        _write(directory / f"{prefix}_example_pair.csv", {
            "latency_ms": result.example_latency_internet,
            "loss": result.example_loss_internet}),
    ]


@write_csv.register
def _(result: DemandFigure, directory, prefix="fig05") -> List[Path]:
    return [_write(Path(directory) / f"{prefix}_demand.csv", {
        "time_s": result.times,
        "total_mbps": result.total,
        "example_pair_mbps": result.example})]


@write_csv.register
def _(result: PredictionFigure, directory, prefix="fig12") -> List[Path]:
    return [_write(Path(directory) / f"{prefix}_prediction.csv", {
        "time_s": result.times,
        "actual_mbps": result.actual,
        "predicted_mbps": result.predicted})]


@write_csv.register
def _(result: CaseStudies, directory, prefix="fig16") -> List[Path]:
    paths = []
    for case in (result.long_term, result.short_term):
        columns = {"time_s": case.times}
        for variant, series in case.latency.items():
            key = variant.lower().replace(" ", "_") + "_latency_ms"
            columns[key] = series
        name = case.name.replace("-", "_")
        paths.append(_write(Path(directory) / f"{prefix}_{name}.csv",
                            columns))
    return paths


@write_csv.register
def _(result: CostAnalysis, directory, prefix="fig17") -> List[Path]:
    directory = Path(directory)
    paths = []
    for policy, counts in result.containers.items():
        key = policy.lower().replace(" ", "_")
        paths.append(_write(directory / f"{prefix}_containers_{key}.csv",
                            {"containers": counts}))
    for version, costs in result.pair_costs.items():
        key = version.lower().replace(" ", "_").replace("-", "_")
        paths.append(_write(directory / f"{prefix}_paircost_{key}.csv",
                            {"normalized_cost": costs}))
    return paths


@write_csv.register
def _(result: ScalingComparison, directory, prefix="fig20") -> List[Path]:
    directory = Path(directory)
    return [_write(directory / f"{prefix}_{policy.lower()}.csv",
                   {"error_rate": np.sort(errors)})
            for policy, errors in result.error_rates.items()]


@write_csv.register
def _(result: WeightSweep, directory,
      prefix="ablation_weights") -> List[Path]:
    keys = sorted(result.points)
    return [_write(Path(directory) / f"{prefix}.csv", {
        "cost_ms_per_fee": keys,
        "normalized_latency": [result.points[k][0] for k in keys],
        "network_cost": [result.points[k][1] for k in keys],
        "premium_share": [result.points[k][2] for k in keys]})]


@write_csv.register
def _(result: NetworkTables, directory, prefix="tab2_tab3") -> List[Path]:
    directory = Path(directory)
    paths = []
    for name, rows in (("latency_ms", result.latency_rows),
                       ("loss_pct", result.loss_rows)):
        services = list(rows)
        columns: Dict[str, List] = {"service": services}
        for col in next(iter(rows.values())):
            columns[col.replace("%", "pct")] = [rows[s][col]
                                                for s in services]
        paths.append(_write(directory / f"{prefix}_{name}.csv", columns))
    return paths
