"""BENCHMARK.json against the driver's contract and against the code,
and the command's behaviour as the driver invokes it."""

import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from benchmarks.e2e import cli

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    text = (ROOT / "BENCHMARK.json").read_text()
    assert len(text.encode()) <= 64 * 1024
    return json.loads(text)


def test_schema_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(part) <= 200 for part in spec["command"])
    for part in spec["command"][1:]:
        assert not part.startswith("/") and ".." not in part
        if "/" in part:
            assert part.startswith("benchmarks/e2e/")
            assert (ROOT / part).is_file()
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    # The whole session must fit the driver's cap with room to spare.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * 2 * spec["run_seconds"] < 3420


def test_spec_is_what_the_code_defines(spec):
    """BENCHMARK.json is ``run.py spec`` written to a file."""
    assert spec == cli.benchmark_spec()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_fails_without_the_program(tmp_path, spec):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the command must exit non-zero and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "e2e",
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        spec["command"] + ["--workload", "epoch_n11", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_invocation_prints_the_result_line_last(spec, trace):
    """A three-second event_n11 run exactly as the driver starts it."""
    proc = subprocess.run(
        spec["command"] + ["--workload", "event_n11", "--seed", "5",
                           "--seconds", "3", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert ({n: m["unit"] for n, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())
