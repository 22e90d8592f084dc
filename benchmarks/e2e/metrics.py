"""Metric names, units and bounds, and how each is computed from a run.

The names are fixed: later issues refer to them.  `END_TO_END` is what a
user of the system sees (measured with tracing off); `per_layer_units()`
is what the traced run adds.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .hostclock import Reading
from .tracing import LAYERS, SPAN_NAMES, Tracer

#: name -> (unit, better, regression bound as a share of the parent's median)
#:
#: The bounds are what the reference box supports (README,
#: "Steadiness"): one bound serves all four workloads, so the noisiest
#: sets it.  The three host times get the contract's maximum; the
#: others are about three times the widest quartile spread any workload
#: showed over ten seeds.  `internet_share` and `served_share` are the
#: complements of the issue's `premium_share` and `unserved_share`
#: (both printed beside them): those are exactly 0 on some workloads,
#: which a relative bound cannot express.  The tail is read at p98, not
#: the issue's p99: on `serve_chaos_n3` 0.5-1.1 % of the ticks are
#: 50-1700 ms spikes, so whether p99 reads 38 ms or 60 ms is a lottery of
#: the seed (3 of 30 seeds cross); p98 is clear of that cliff on every
#: seed tried.  p99 is kept in the detail.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "sim_s_per_wall_s": ("sim_s/s", "higher", 0.25),
    "cpu_s_per_sim_h": ("s/h", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "path_latency_p50_ms": ("ms", "lower", 0.15),
    "path_latency_p98_ms": ("ms", "lower", 0.25),
    "internet_share": ("share", "higher", 0.20),
    "served_share": ("share", "higher", 0.05),
}

#: The four that depend on the host; the other four are simulated
#: outcomes and repeat exactly for a fixed seed.
HOST_TIME = ("setup_s", "sim_s_per_wall_s", "cpu_s_per_sim_h", "peak_rss_mb")
SIMULATED = tuple(name for name in END_TO_END if name not in HOST_TIME)

#: Per-layer counts that are not span calls/busy time: name -> unit.
LAYER_COUNTS: Dict[str, str] = {
    "dataplane.probe_round.reports": "count",
    "controlplane.run_epoch.p50_ms": "ms",
    "controlplane.run_epoch.max_ms": "ms",
    "resilience.checkpoint_bytes": "count",
    "resilience.installs_committed": "count",
    "resilience.installs_rejected": "count",
    "faults.fired": "count",
    "obs.events_written": "count",
    "obs.bytes_written": "count",
    "sim.events": "count",
    "sim.events_per_wall_s": "1/s",
    "trace.coverage": "share",
    "trace.overhead_share": "share",
}


#: Per-layer metrics where more is better; for every other, less is.
PER_LAYER_HIGHER = ("resilience.installs_committed", "sim.events_per_wall_s",
                    "trace.coverage")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.busy_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "share"
    units.update(LAYER_COUNTS)
    return units


# --------------------------------------------------------------------------
# Percentiles
# --------------------------------------------------------------------------
#: The tail percentile `path_latency_p98_ms` asks for.
TAIL_PERCENTILE = 98.0


def supported_percentile(n: int, wanted: float = TAIL_PERCENTILE,
                         beyond: int = 10) -> float:
    """The highest percentile <= `wanted` that still has at least
    `beyond` of the `n` samples above it (the median when n is tiny)."""
    if n <= 2 * beyond:
        return 50.0
    return min(wanted, 100.0 * (1.0 - beyond / n))


def percentile(values: np.ndarray, weights: Optional[np.ndarray],
               q: float) -> float:
    """`q`-th percentile of `values`, weighted when `weights` is given
    (midpoint rule, as `repro.analysis.stats.weighted_percentiles`)."""
    if weights is None:
        return float(np.percentile(values, q))
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    cum = np.cumsum(w)
    positions = (cum - 0.5 * w) / cum[-1]
    return float(np.interp(q / 100.0, positions, v))


# --------------------------------------------------------------------------
# End to end
# --------------------------------------------------------------------------
def end_to_end(outcome, timing: Reading, setup_s: float, peak_rss_mb: float
               ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(the eight metrics, supporting detail) from one untraced run.

    `timing` is the stopwatch's reading of the timed region.  `setup_s`
    is already in undisturbed seconds; wall and CPU time of the timed
    region are scaled here by the speed the host had while it ran.  The
    raw figures are kept in the detail."""
    speed = timing.speed
    n = int(outcome.latency_ms.size)
    tail_q = supported_percentile(n)
    unserved = (outcome.ops_failed / outcome.ops_attempted
                if outcome.ops_attempted > 0 else 0.0)
    values = {
        "setup_s": setup_s,
        "sim_s_per_wall_s": outcome.sim_s / (timing.wall_s * speed),
        "cpu_s_per_sim_h": timing.cpu_s * speed / (outcome.sim_s / 3600.0),
        "peak_rss_mb": peak_rss_mb,
        "path_latency_p50_ms": percentile(outcome.latency_ms,
                                          outcome.weights, 50.0),
        "path_latency_p98_ms": percentile(outcome.latency_ms,
                                          outcome.weights, tail_q),
        "internet_share": 1.0 - outcome.premium_share,
        "served_share": 1.0 - unserved,
    }
    detail = {
        "sim_s": outcome.sim_s, "wall_s": timing.wall_s,
        "cpu_s": timing.cpu_s,
        "host_speed": speed, "speed_samples": len(timing.kernel_s),
        "latency_samples": n, "tail_percentile": tail_q,
        "path_latency_p99_ms": percentile(
            outcome.latency_ms, outcome.weights,
            supported_percentile(n, wanted=99.0)),
        "premium_share": outcome.premium_share,
        "unserved_share": unserved,
        "ops_attempted": outcome.ops_attempted,
        "ops_failed": outcome.ops_failed,
    }
    return values, detail


# --------------------------------------------------------------------------
# Per layer
# --------------------------------------------------------------------------
def per_layer(tracer: Tracer, outcome, wall: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run of `wall` seconds except
    ``trace.overhead_share`` (needs the untraced wall too; see
    `cli.finish_trace`)."""
    values = {name: 0.0 for name in per_layer_units()}
    for span, row in tracer.by_name().items():
        values[f"{span}.calls"] = float(row["calls"])
        values[f"{span}.busy_s"] = row["busy_s"]
    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        values[f"{layer}.self_share"] = layer_self.get(layer, 0.0) / wall
    # Every span closed in the timed region hands its self time to
    # exactly one layer, so the sum is the time under top-level spans.
    values["trace.coverage"] = sum(layer_self.values()) / wall
    for name, count in tracer.counts.items():
        values[name] = float(count)
    for name, count in outcome.layer_counts.items():
        values[name] = float(count)
    values["sim.events_per_wall_s"] = values["sim.events"] / wall
    epochs_ms = [1e3 * d for d in tracer.durations(
        "controlplane.run_epoch",
        exclude_parent="controlplane.regional_epoch")]
    if epochs_ms:
        values["controlplane.run_epoch.p50_ms"] = statistics.median(epochs_ms)
        values["controlplane.run_epoch.max_ms"] = max(epochs_ms)
    return values


# --------------------------------------------------------------------------
# Spread between runs
# --------------------------------------------------------------------------
def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float,
                                                      float]:
    """(median, q1, q3, (q3 - q1) / median) as the driver computes it."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(name: str, first: float, second: float) -> float:
    """How much worse `second` is than `first`, as a share of `first`
    (negative = better), in the metric's own direction."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if END_TO_END[name][1] == "lower" else -change
