"""Telemetry capture through the experiment orchestrator."""

import pytest

from repro import obs
from repro.experiments.export import write_manifest
from repro.experiments.orchestrator import (execute_one, rollup_records,
                                            run_parallel, run_sequential)
from repro.experiments.registry import ExperimentSpec
from repro.obs.export import read_jsonl, write_merged_jsonl

_MODULE = __name__


def fake_instrumented():
    """A fake experiment that exercises the telemetry hub directly."""
    tel = obs.telemetry()
    tel.counter("fake.widgets").inc(3)
    tel.event("failover", t=10.0, stream=1)
    return ["one output line"]


@pytest.fixture()
def instrumented_spec(register_specs):
    spec = ExperimentSpec("__instrumented", _MODULE,
                          func="fake_instrumented")
    register_specs(spec)
    obs.disable()
    obs.reset()
    try:
        yield spec
    finally:
        obs.disable()
        obs.reset()


class TestExecuteOne:
    def test_without_telemetry_record_is_bare(self, instrumented_spec):
        record = execute_one("__instrumented")
        assert record.ok
        assert record.metrics is None and record.events is None
        assert "metrics" not in record.to_json()

    def test_with_telemetry_record_carries_capture(self, instrumented_spec):
        record = execute_one("__instrumented", telemetry=True)
        assert record.ok
        assert record.metrics["fake.widgets"]["value"] == 3
        assert record.events[0]["kind"] == "failover"
        # Events stay OUT of the manifest row; metrics go in.
        doc = record.to_json()
        assert "events" not in doc
        assert doc["metrics"]["fake.widgets"]["value"] == 3

    def test_output_lines_identical_either_way(self, instrumented_spec):
        plain = execute_one("__instrumented")
        traced = execute_one("__instrumented", telemetry=True)
        assert plain.lines == traced.lines


class TestSuite:
    def test_sequential_merged_telemetry(self, instrumented_spec,
                                         tmp_path):
        records = run_sequential(["__instrumented"], telemetry=True)
        path = write_merged_jsonl(
            tmp_path / "t.jsonl",
            [{"exp": r.name, "events": r.events or [],
              "metrics": r.metrics or {}} for r in records],
            meta={"suite": "quick"})
        doc = read_jsonl(path)
        assert doc.events_of("failover")[0]["exp"] == "__instrumented"
        assert doc.metrics[0]["metrics"]["fake.widgets"]["value"] == 3

    def test_parallel_capture_crosses_process_boundary(
            self, instrumented_spec):
        records = run_parallel(["__instrumented"], workers=2,
                               telemetry=True)
        (record,) = records
        assert record.ok
        assert record.metrics["fake.widgets"]["value"] == 3
        assert record.events[0]["kind"] == "failover"


class TestStreamingIsolation:
    """`capture()` must fence a live stream off from nested windows —
    including the forked pool workers that inherit the parent's open
    stream file handle."""

    def test_capture_window_never_writes_the_ambient_stream(
            self, instrumented_spec, tmp_path):
        hub = obs.enable()
        stream = hub.attach_stream(tmp_path / "ambient.jsonl")
        try:
            record = execute_one("__instrumented", telemetry=True)
            assert record.ok
            assert record.events[0]["kind"] == "failover"
        finally:
            hub.detach_stream(close=True)
        doc = read_jsonl(stream.paths[0])
        assert doc.events == []  # the experiment's events stayed out

    def test_parallel_workers_never_write_the_parent_stream(
            self, instrumented_spec, tmp_path):
        hub = obs.enable()
        stream = hub.attach_stream(tmp_path / "parent.jsonl")
        try:
            records = run_parallel(["__instrumented"] * 2, workers=2,
                                   telemetry=True)
            assert all(r.ok for r in records)
            assert all(r.events[0]["kind"] == "failover" for r in records)
            # The parent's stream still works after the pool ran.
            hub.event("autoscale", t=1.0)
        finally:
            hub.detach_stream(close=True)
        for path in stream.paths:
            kinds = [e["kind"] for e in read_jsonl(path).events]
            assert "failover" not in kinds
        assert any("autoscale" in [e["kind"] for e
                                   in read_jsonl(p).events]
                   for p in stream.paths)


class TestRollup:
    def test_rollup_aggregates_wall_and_retries(self, instrumented_spec):
        records = run_sequential(["__instrumented", "__instrumented"])
        records[1].retries = 2
        rollup = rollup_records(records)
        assert rollup["orchestrator.experiments"]["value"] == 2
        assert rollup["orchestrator.status.ok"]["value"] == 2
        assert rollup["orchestrator.retries"]["value"] == 2
        wall = rollup["orchestrator.experiment_wall_s"]
        assert wall["kind"] == "histogram" and wall["count"] == 2

    def test_manifest_gains_additive_keys(self, instrumented_spec,
                                          tmp_path):
        import json

        records = run_sequential(["__instrumented"], telemetry=True)
        path = write_manifest(records, tmp_path / "m.json",
                              rollup=rollup_records(records),
                              telemetry_path="t.jsonl")
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        assert doc["telemetry"] == "t.jsonl"
        assert doc["rollup"]["orchestrator.experiments"]["value"] == 1
        # Backward compatibility: the original keys are all still there.
        for key in ("suite", "mode", "workers", "counts", "experiments"):
            assert key in doc
