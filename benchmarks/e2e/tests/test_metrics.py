"""Percentile rule, spread statistics, metric vocabulary, result JSON."""

import json
import statistics

import numpy as np
import pytest

from benchmarks.e2e import cli, metrics
from benchmarks.e2e.hostclock import REFERENCE_KERNEL_S, Reading


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert metrics.supported_percentile(100_000) == 98.0
    assert metrics.supported_percentile(500) == 98.0        # exactly ten
    assert metrics.supported_percentile(499) == pytest.approx(
        100 * (1 - 10 / 499))
    assert metrics.supported_percentile(1000, wanted=99.0) == 99.0
    assert metrics.supported_percentile(999, wanted=99.0) == pytest.approx(
        100 * (1 - 10 / 999))
    assert metrics.supported_percentile(490) == pytest.approx(97.959, abs=1e-3)
    assert metrics.supported_percentile(21) == pytest.approx(52.381, abs=1e-3)
    assert metrics.supported_percentile(20) == 50.0          # too few: median
    assert metrics.supported_percentile(0) == 50.0
    for n in (25, 100, 490, 499, 5000):
        q = metrics.supported_percentile(n)
        assert n * (1 - q / 100) >= 10 - 1e-9


def test_weighted_percentile_matches_the_programs_own():
    from repro.analysis.stats import weighted_percentiles
    rng = np.random.default_rng(0)
    values, weights = rng.random(500) * 100, rng.random(500)
    for q in (50.0, 97.5, 99.0):
        assert metrics.percentile(values, weights, q) == pytest.approx(
            float(weighted_percentiles(values, weights, [q])[0]))
    assert metrics.percentile(values, None, 50.0) == pytest.approx(
        float(np.median(values)))


def test_quartile_spread_is_what_the_driver_computes():
    values = [10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.0, 10.3, 9.7, 10.6]
    median, q1, q3, spread = metrics.quartile_spread(values)
    d1, __, d3 = statistics.quantiles(values, n=4)
    assert (median, q1, q3) == (statistics.median(values), d1, d3)
    assert spread == pytest.approx((d3 - d1) / statistics.median(values))
    assert metrics.quartile_spread([3.0]) == (3.0, 3.0, 3.0, 0.0)


def test_worse_by_follows_the_metrics_direction():
    assert metrics.worse_by("setup_s", 1.0, 1.2) == pytest.approx(0.2)
    assert metrics.worse_by("setup_s", 1.0, 0.9) == pytest.approx(-0.1)
    assert metrics.worse_by("sim_s_per_wall_s", 10.0, 9.0) == pytest.approx(0.1)
    assert metrics.worse_by("served_share", 1.0, 1.0) == 0.0


class _Outcome:
    sim_s = 90.0
    latency_ms = np.arange(1.0, 2001.0)
    weights = None
    premium_share = 0.25
    ops_attempted, ops_failed = 2000.0, 20.0
    counts = {"events_processed": 7, "epochs": 3, "checkpoints": 0}
    layer_counts = {"sim.events": 7}


#: Ten wall seconds and nine of CPU; the host ran at 0.8 of its best.
_TIMING = Reading(10.0, 9.0, [REFERENCE_KERNEL_S / 0.8] * 4)


def test_end_to_end_reports_reference_speed_seconds_and_round_trips():
    values, detail = metrics.end_to_end(_Outcome, _TIMING, setup_s=1.5,
                                        peak_rss_mb=100.0)
    assert list(values) == list(metrics.END_TO_END)
    assert values["sim_s_per_wall_s"] == pytest.approx(90.0 / (10.0 * 0.8))
    assert values["cpu_s_per_sim_h"] == pytest.approx(9.0 * 0.8 / 0.025)
    assert values["internet_share"] == 0.75
    assert values["served_share"] == 0.99
    assert values["path_latency_p50_ms"] == pytest.approx(1000.5)
    assert detail["tail_percentile"] == 98.0
    assert detail["path_latency_p99_ms"] >= values["path_latency_p98_ms"]
    assert detail["unserved_share"] == 0.01 and detail["premium_share"] == 0.25
    assert json.loads(json.dumps(values)) == values
    assert all(v != 0 for v in values.values())


def test_every_metric_has_a_unit_and_the_contract_line_carries_them_all():
    units = metrics.per_layer_units()
    for name in ("dataplane.probe_round.reports",
                 "controlplane.run_epoch.p50_ms",
                 "controlplane.run_epoch.max_ms",
                 "resilience.checkpoint_bytes",
                 "resilience.installs_committed",
                 "resilience.installs_rejected", "faults.fired",
                 "obs.events_written", "obs.bytes_written", "sim.events",
                 "sim.events_per_wall_s", "trace.coverage",
                 "trace.overhead_share", "core.self_share",
                 "dataplane.probe_round.calls", "dataplane.probe_round.busy_s"):
        assert units[name]
    assert len(units) <= 128 and len(metrics.END_TO_END) <= 16
    assert set(metrics.HOST_TIME) | set(metrics.SIMULATED) == set(
        metrics.END_TO_END)

    values, detail = metrics.end_to_end(_Outcome, _TIMING, 1.5, 100.0)
    record = {"end_to_end": values, "detail": detail, "failures": [],
              "counts": _Outcome.counts,
              "per_layer": {name: 0.0 for name in units}}
    plain = json.loads(cli.contract_line(record, trace=False))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] is True and plain["failed"] == 0
    assert plain["attempted"] == 7
    assert set(plain["metrics"]) == set(metrics.END_TO_END)
    for name, (unit, __, __) in metrics.END_TO_END.items():
        assert plain["metrics"][name] == {"value": values[name], "unit": unit}
    traced = json.loads(cli.contract_line(record, trace=True))
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == units


def _worker_doc(wall_s, coverage=1.0, epochs=3, p50=10.0):
    return {"detail": {"wall_s": wall_s, "host_speed": 1.0},
            "counts": {"events_processed": 7, "epochs": epochs,
                       "checkpoints": 0},
            "end_to_end": {name: p50 for name in metrics.SIMULATED},
            "failures": [],
            "per_layer": {"trace.coverage": coverage}}


def test_traced_run_must_repeat_the_untraced_runs_work_and_outcomes():
    failures, warnings = [], []
    layer = cli.finish_trace(_worker_doc(10.0), _worker_doc(11.0),
                             failures, warnings)
    assert layer["trace.overhead_share"] == pytest.approx(0.1)
    assert failures == [] and warnings == []

    cli.finish_trace(_worker_doc(10.0), _worker_doc(11.0, epochs=4),
                     failures, warnings)
    assert len(failures) == 1 and "changed the work" in failures[0]
    failures.clear()
    cli.finish_trace(_worker_doc(10.0), _worker_doc(11.0, p50=10.5),
                     failures, warnings)
    assert len(failures) == len(metrics.SIMULATED)
    failures.clear()
    cli.finish_trace(_worker_doc(10.0), _worker_doc(11.0, coverage=0.9),
                     failures, warnings)
    assert len(failures) == 1 and "trace.coverage" in failures[0]
    failures.clear()
    # A slow minute between the two runs is flagged, not failed.
    cli.finish_trace(_worker_doc(10.0), _worker_doc(13.0), failures, warnings)
    assert failures == [] and len(warnings) == 1
