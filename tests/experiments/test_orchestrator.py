"""Tests for the process-pool experiment orchestrator.

The fake experiments below live at module level so pool workers can
resolve them by name: every fake spec names this module, whose `run`
calls the fake its ``fake`` keyword names.  The parallel tests rely on
fork-start workers (the orchestrator pins the ``fork`` context on
POSIX), which inherit specs registered by the test fixture.
"""

import json
import time

import pytest

from repro.experiments import runner
from repro.experiments.export import write_manifest
from repro.experiments.orchestrator import (STATUS_FAILED, STATUS_OK,
                                            STATUS_TIMEOUT,
                                            TransientExperimentError,
                                            execute_one, run_parallel,
                                            run_sequential)
from repro.experiments.registry import ExperimentSpec

_MODULE = __name__


def run(fake, **kwargs):
    """The fake experiments' entry point: runs ``fake_<fake>``."""
    return globals()[f"fake_{fake}"](**kwargs)


def fake_ok():
    return ["alpha", "beta"]


def fake_sleepy():
    time.sleep(60.0)
    return ["never reached"]


def fake_boom():
    raise ValueError("deterministic boom")


def fake_flaky(flag):
    """Fails transiently on the first call, succeeds on the second.

    Cross-attempt (and cross-process) state lives in a flag file
    because retries may land in a different worker process.
    """
    import pathlib
    marker = pathlib.Path(flag)
    if not marker.exists():
        marker.write_text("attempted")
        raise TransientExperimentError("first attempt fails")
    return ["recovered"]


@pytest.fixture()
def fake_specs(tmp_path, register_specs):
    """Register the fake experiments for the test."""
    flag = tmp_path / "flaky.flag"
    specs = [
        ExperimentSpec("__ok", _MODULE, quick_kwargs={"fake": "ok"}),
        ExperimentSpec("__sleepy", _MODULE, quick_kwargs={"fake": "sleepy"}),
        ExperimentSpec("__boom", _MODULE, quick_kwargs={"fake": "boom"}),
        ExperimentSpec("__flaky", _MODULE,
                       quick_kwargs={"fake": "flaky", "flag": str(flag)}),
    ]
    register_specs(*specs)
    return {s.name: s for s in specs}


class TestExecuteOne:
    def test_ok_record(self, fake_specs):
        record = execute_one("__ok")
        assert record.status == STATUS_OK and record.ok
        assert record.lines == ["alpha", "beta"]
        assert record.traceback is None
        assert record.seed == fake_specs["__ok"].resolved_seed()

    def test_failure_captures_full_traceback(self, fake_specs):
        record = execute_one("__boom")
        assert record.status == STATUS_FAILED and not record.ok
        assert not record.transient
        assert "ValueError: deterministic boom" in record.traceback
        assert "fake_boom" in record.traceback  # full stack, not repr

    def test_timeout_interrupts_in_process(self, fake_specs):
        t0 = time.perf_counter()
        record = execute_one("__sleepy", timeout_s=0.3)
        assert record.status == STATUS_TIMEOUT
        assert record.transient
        assert time.perf_counter() - t0 < 10.0


class TestParallel:
    def test_timeout_kill(self, fake_specs):
        t0 = time.perf_counter()
        records = run_parallel(["__sleepy", "__ok"], workers=2,
                               timeout_s=0.5, retries=0)
        assert time.perf_counter() - t0 < 30.0
        by_name = {r.name: r for r in records}
        assert by_name["__sleepy"].status == STATUS_TIMEOUT
        assert by_name["__ok"].status == STATUS_OK

    def test_retry_then_succeed(self, fake_specs):
        records = run_parallel(["__flaky"], workers=2, retries=1)
        (record,) = records
        assert record.status == STATUS_OK
        assert record.retries == 1
        assert record.lines == ["recovered"]

    def test_retries_exhausted(self, fake_specs, tmp_path, register_specs):
        register_specs(ExperimentSpec(
            "__always_flaky", _MODULE,
            quick_kwargs={"fake": "flaky",
                          "flag": str(tmp_path / "absent" / "nope")}))
        (record,) = run_parallel(["__always_flaky"], workers=1, retries=2)
        assert record.status == STATUS_FAILED
        assert record.retries == 2

    def test_deterministic_failure_not_retried(self, fake_specs):
        (record,) = run_parallel(["__boom"], workers=1, retries=3)
        assert record.status == STATUS_FAILED
        assert record.retries == 0
        assert "deterministic boom" in record.traceback

    def test_preserves_input_order(self, fake_specs):
        names = ["__boom", "__ok", "__sleepy"]
        records = run_parallel(names, workers=2, retries=0, timeout_s=0.5)
        assert [r.name for r in records] == names

    def test_on_record_fires_once_per_experiment(self, fake_specs):
        seen = []
        run_parallel(["__ok", "__flaky"], workers=2, retries=1,
                     on_record=lambda r: seen.append(r.name))
        assert sorted(seen) == ["__flaky", "__ok"]


class TestSequentialParallelEquality:
    def test_two_fast_experiments_byte_identical(self):
        names = ["fig04", "fig11"]
        seq = run_sequential(names)
        par = run_parallel(names, workers=2)
        assert [r.name for r in seq] == [r.name for r in par] == names
        for s, p in zip(seq, par):
            assert s.status == p.status == STATUS_OK
            assert s.lines == p.lines
            assert s.seed == p.seed


class TestManifest:
    def test_failure_manifest_entry(self, fake_specs, tmp_path):
        records = run_sequential(["__ok", "__boom"])
        path = write_manifest(records, tmp_path / "manifest.json",
                              suite="quick", mode="sequential",
                              workers=1, total_wall_s=1.234)
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        assert doc["counts"] == {"failed": 1, "ok": 1}
        assert doc["total_wall_s"] == 1.234
        ok, boom = doc["experiments"]
        assert ok["name"] == "__ok" and ok["lines"] == ["alpha", "beta"]
        assert ok["traceback"] is None
        assert boom["status"] == "failed"
        assert "ValueError: deterministic boom" in boom["traceback"]
        assert isinstance(boom["seed"], int) and boom["retries"] == 0

    def test_manifest_is_diffable(self, fake_specs, tmp_path):
        """Two identical runs differ only in measured timings."""
        def scrub(doc):
            doc = json.loads(doc)
            doc["total_wall_s"] = 0
            for entry in doc["experiments"]:
                entry["wall_s"] = 0
            return doc

        a = write_manifest(run_sequential(["__ok"]), tmp_path / "a.json")
        b = write_manifest(run_sequential(["__ok"]), tmp_path / "b.json")
        assert scrub(a.read_text()) == scrub(b.read_text())


class TestDispatcher:
    def test_run_dispatches_on_parallel(self, fake_specs, capsys):
        """The runner picks the path on ``--parallel``; both print the
        same report lines."""
        def report(*argv):
            assert runner.main(["--only", "__ok", *argv]) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("---")]
        assert report() == report("--parallel", "2")
        assert "alpha" in report()
