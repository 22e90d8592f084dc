"""Tests for the experiments runner CLI (exit codes, report, manifest)."""

import json

import pytest

from repro.experiments import runner
from repro.experiments.registry import ExperimentSpec

_MODULE = "tests.experiments.test_orchestrator"


@pytest.fixture()
def fake_ok_spec(register_specs):
    spec = ExperimentSpec("__cli_ok", _MODULE, quick_kwargs={"fake": "ok"})
    register_specs(spec)
    return spec


@pytest.fixture()
def fake_boom_spec(register_specs):
    spec = ExperimentSpec("__cli_boom", _MODULE,
                          quick_kwargs={"fake": "boom"})
    register_specs(spec)
    return spec


class TestExitCodes:
    def test_only_without_match_exits_nonzero(self, capsys):
        rc = runner.main(["--only", "no-such-experiment"])
        assert rc == 2
        assert "no experiments match" in capsys.readouterr().err

    def test_tags_without_match_exits_nonzero(self):
        assert runner.main(["--tags", "no-such-tag"]) == 2

    def test_success_exits_zero(self, fake_ok_spec, capsys):
        rc = runner.main(["--only", "__cli_ok"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "=== __cli_ok" in out and "alpha" in out

    def test_failure_exits_one_with_full_traceback(self, fake_boom_spec,
                                                   capsys):
        rc = runner.main(["--only", "__cli_boom"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAILED (failed)" in out
        # The full traceback, not just the repr of the exception.
        assert "Traceback (most recent call last)" in out
        assert "ValueError: deterministic boom" in out
        assert "fake_boom" in out


class TestList:
    def test_list_shows_selected_specs(self, capsys):
        assert runner.main(["--list", "--only", "fig04"]) == 0
        out = capsys.readouterr().out
        assert "fig04" in out and "seed" in out
        assert "fig16" not in out


class TestManifestFlag:
    def test_manifest_written(self, fake_ok_spec, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        rc = runner.main(["--only", "__cli_ok", "--manifest", str(path)])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["counts"] == {"ok": 1}
        assert doc["mode"] == "sequential"
        (entry,) = doc["experiments"]
        assert entry["name"] == "__cli_ok"
        assert entry["lines"] == ["alpha", "beta"]

    def test_parallel_manifest_records_workers(self, fake_ok_spec,
                                               tmp_path, capsys):
        path = tmp_path / "manifest.json"
        rc = runner.main(["--only", "__cli_ok", "--parallel", "2",
                          "--manifest", str(path)])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["mode"] == "parallel" and doc["workers"] == 2
