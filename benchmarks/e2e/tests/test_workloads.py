"""Seeded input generators and output checks."""

from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import cli, workloads


def _link_fingerprint(underlay):
    t = 100.0
    return [(key, float(underlay.link(*key).latency_ms(t)))
            for key in sorted(underlay._links, key=str)[:40]]


def _event_fingerprint(seed, world_seed=7):
    inputs = workloads.build_event_n11(seed, world_seed, 1.0, Path("."))
    engine = inputs.engine
    return (_link_fingerprint(engine.underlay), list(engine.sessions),
            [engine.demand.pair_scale(*p) for p in engine.demand.pairs[:20]],
            inputs.start_s, inputs.duration_s, engine.sim_config.seed)


def test_event_inputs_repeat_for_a_seed_and_differ_between_seeds():
    assert _event_fingerprint(3) == _event_fingerprint(3)
    assert _event_fingerprint(3) != _event_fingerprint(4)
    # The run's seed leaves the world alone; the world seed redraws it.
    assert _event_fingerprint(3)[0] == _event_fingerprint(4)[0]
    assert _event_fingerprint(3)[0] != _event_fingerprint(3, world_seed=8)[0]
    assert len(_event_fingerprint(3)[1]) == 110


def _serve_fingerprint(seed, world_seed, tmp_path):
    inputs = workloads.build_serve_chaos_n3(seed, world_seed, 15.0, tmp_path)
    try:
        return (_link_fingerprint(inputs.engine.underlay),
                inputs.schedule.to_json(), inputs.duration_s,
                list(inputs.engine.sessions), inputs.engine.sim_config.seed)
    finally:
        inputs.stack.close()


def test_serve_inputs_repeat_and_schedule_covers_the_fault_taxonomy(tmp_path):
    from repro.faults.spec import FaultKind
    first = _serve_fingerprint(3, 7, tmp_path / "a")
    assert first == _serve_fingerprint(3, 7, tmp_path / "b")
    assert first != _serve_fingerprint(4, 7, tmp_path / "c")
    other = _serve_fingerprint(3, 8, tmp_path / "d")
    assert first[0] != other[0]
    assert first[1] == other[1]          # the soak rotation is pure data
    assert len(first[3]) == 6            # every pair of 3 regions tracked
    inputs = workloads.build_serve_chaos_n3(
        3, 7, float(cli.DEFAULT_SECONDS), tmp_path / "e")
    try:
        assert {s.kind for s in inputs.schedule.specs} == set(FaultKind)
    finally:
        inputs.stack.close()


def test_control_inputs_are_seeded(monkeypatch):
    # A 12-region planet keeps this a unit test; the generator code is
    # the same at 100.
    real = workloads.planet_underlay
    monkeypatch.setattr(workloads, "planet_underlay",
                        lambda n, seed, horizon_s: real(12, seed, horizon_s))

    def fingerprint(seed):
        inputs = workloads.build_control_n100(seed, 7, 15.0, Path("."))
        reports = workloads._snapshot_reports(inputs.underlay, 300.0)
        return ([m.total() for m in inputs.matrices],
                [(r.src, r.dst, r.latency_ms) for r in reports[:30]],
                len(reports))

    first = fingerprint(5)
    assert first == fingerprint(5)
    assert first != fingerprint(6)
    assert len(first[0]) == 8 and first[2] == 12 * 11 * 2
    # The same evenly spaced load factors in another order.
    assert sorted(first[0]) == pytest.approx(sorted(fingerprint(6)[0]))
    assert max(first[0]) / min(first[0]) == pytest.approx(1.2 / 0.8)


def test_every_workload_of_the_cli_has_a_builder_and_a_runner():
    assert tuple(workloads.WORKLOADS) == cli.WORKLOAD_NAMES


def test_latency_floor_check_flags_impossible_and_non_finite_values():
    from repro.underlay.topology import build_underlay
    underlay = build_underlay(seed=1)
    failures = []
    pair = ("HGH", "IAD")
    workloads.check_latencies(failures, underlay, "t", pair,
                              np.array([150.0, 200.0]))
    assert failures == []
    workloads.check_latencies(failures, underlay, "t", pair, np.array([5.0]))
    workloads.check_latencies(failures, underlay, "t", pair,
                              np.array([np.inf]))
    assert len(failures) == 2
    assert "below the propagation floor" in failures[0]
    assert "non-finite" in failures[1]
