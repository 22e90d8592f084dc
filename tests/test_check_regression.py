"""The CI perf gate: distillation and regression detection."""

import ast
import json
import pathlib

import pytest

from benchmarks.check_regression import (BUDGETED_SWEEP_BASES, GATED,
                                         SWEEP_GATED, TABLE_BEGIN, TABLE_END,
                                         TABLE_ROWS, main, parse_sweep_name,
                                         summarise_raw)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def raw_doc(means):
    return {
        "machine_info": {"cpu": {"brand_raw": "TestCPU"},
                         "python_version": "3.x", "system": "Linux"},
        "benchmarks": [
            {"name": name,
             "stats": {"mean": mean, "stddev": mean / 20.0,
                       "min": mean * 0.9, "rounds": 5}}
            for name, mean in means.items()],
    }


@pytest.fixture()
def files(tmp_path):
    means = {name: 0.020 for name in GATED}
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps(raw_doc(means)))
    summary = tmp_path / "BENCH_control.json"
    return raw, summary, means, tmp_path


def test_distill_then_check_passes(files, capsys):
    raw, summary, __, __ = files
    assert main(["distill", str(raw), "-o", str(summary)]) == 0
    doc = json.loads(summary.read_text())
    assert doc["machine"]["cpu"] == "TestCPU"
    assert set(doc["current"]) == set(GATED)
    assert main(["check", str(raw), "--reference", str(summary)]) == 0
    assert "perf gate passed" in capsys.readouterr().out


def test_regressed_mean_fails(files):
    raw, summary, means, tmp_path = files
    assert main(["distill", str(raw), "-o", str(summary)]) == 0
    slow = dict(means)
    slow["test_full_two_step_control_paper_scale"] *= 1.5  # > the 25% gate
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(raw_doc(slow)))
    assert main(["check", str(fresh), "--reference", str(summary)]) == 1


def test_within_gate_passes(files):
    raw, summary, means, tmp_path = files
    assert main(["distill", str(raw), "-o", str(summary)]) == 0
    noisy = {name: mean * 1.10 for name, mean in means.items()}
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(raw_doc(noisy)))
    assert main(["check", str(fresh), "--reference", str(summary)]) == 0


def test_missing_benchmark_fails(files):
    raw, summary, means, tmp_path = files
    assert main(["distill", str(raw), "-o", str(summary)]) == 0
    partial = {k: v for k, v in means.items()
               if k != "test_path_control_double_scale"}
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(raw_doc(partial)))
    assert main(["check", str(fresh), "--reference", str(summary)]) == 1


def test_paper_bound_enforced(files):
    raw, summary, means, tmp_path = files
    assert main(["distill", str(raw), "-o", str(summary)]) == 0
    # A 3 s mean regresses the gate *and* breaks the paper's 2 s bound;
    # widen the gate so only the absolute bound can fail the check.
    slow = dict(means)
    slow["test_path_control_double_scale"] = 3.0
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(raw_doc(slow)))
    assert main(["check", str(fresh), "--reference", str(summary),
                 "--max-regression", "1000"]) == 1


def test_baseline_carried_over(files):
    raw, summary, __, tmp_path = files
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(raw_doc(
        {name: 0.200 for name in GATED})))
    assert main(["distill", str(raw), "-o", str(summary),
                 "--baseline", str(baseline)]) == 0
    doc = json.loads(summary.read_text())
    assert doc["baseline_pre_refactor"][GATED[0]]["mean_s"] == 0.2

    summary2 = tmp_path / "BENCH2.json"
    assert main(["distill", str(raw), "-o", str(summary2),
                 "--keep-baseline-from", str(summary)]) == 0
    doc2 = json.loads(summary2.read_text())
    assert doc2["baseline_pre_refactor"] == doc["baseline_pre_refactor"]

    # Both: the kept baseline gains the raw file's entries.
    added = tmp_path / "added.json"
    added.write_text(json.dumps(raw_doc({"test_new[n100]": 3.0})))
    summary3 = tmp_path / "BENCH3.json"
    assert main(["distill", str(raw), "-o", str(summary3),
                 "--keep-baseline-from", str(summary),
                 "--baseline", str(added)]) == 0
    kept = json.loads(summary3.read_text())["baseline_pre_refactor"]
    assert kept["test_new[n100]"]["mean_s"] == 3.0
    assert {name: kept[name] for name in doc["baseline_pre_refactor"]} \
        == doc["baseline_pre_refactor"]


def test_current_rows_carried_over(files):
    """A run of a few rows re-records those and keeps the others."""
    raw, summary, means, tmp_path = files
    assert main(["distill", str(raw), "-o", str(summary)]) == 0
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps(raw_doc(
        {GATED[0]: 0.010, "test_new[n100]": 3.0})))
    merged = tmp_path / "merged.json"
    assert main(["distill", str(rows), "-o", str(merged),
                 "--keep-current-from", str(summary)]) == 0
    current = json.loads(merged.read_text())["current"]
    assert set(current) == set(GATED) | {"test_new[n100]"}
    assert current[GATED[0]]["mean_s"] == 0.010
    assert current["test_new[n100]"]["mean_s"] == 3.0
    for name in GATED[1:]:
        assert current[name]["mean_s"] == means[name]


def test_summarise_raw_rounding():
    doc = raw_doc({"x": 0.123456789})
    assert summarise_raw(doc)["x"]["mean_s"] == 0.123457


# ------------------------------------------------------- sweep gating


def test_parse_sweep_name():
    assert parse_sweep_name("test_sweep_full_epoch[n100]") == \
        ("test_sweep_full_epoch", 100)
    assert parse_sweep_name("test_sweep_snapshot_build[n011]") == \
        ("test_sweep_snapshot_build", 11)
    assert parse_sweep_name("test_path_control_double_scale") is None
    assert parse_sweep_name("test_sweep_full_epoch[big]") is None


def sweep_means(scale=1.0):
    means = {name: 0.020 for name in GATED}
    for n in (11, 50, 100):
        means[f"test_sweep_snapshot_build[n{n:03d}]"] = 0.010 * n * scale
        means[f"test_sweep_full_epoch[n{n:03d}]"] = 0.015 * n * scale
    return means


def test_sweep_entries_gated(files, capsys):
    __, summary, __, tmp_path = files
    raw = tmp_path / "sweep_raw.json"
    raw.write_text(json.dumps(raw_doc(sweep_means())))
    assert main(["distill", str(raw), "-o", str(summary)]) == 0
    assert main(["check", str(raw), "--reference", str(summary)]) == 0
    out = capsys.readouterr().out
    assert "test_sweep_full_epoch[n100]" in out
    assert "100 regions" in out

    # Sweep entries get a looser 50% gate (few-round timings are noisy;
    # the hard guarantee is the absolute budget): 1.4x passes, 2x fails.
    noisy = sweep_means()
    noisy["test_sweep_full_epoch[n050]"] *= 1.4
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(raw_doc(noisy)))
    assert main(["check", str(fresh), "--reference", str(summary)]) == 0

    regressed = sweep_means()
    regressed["test_sweep_full_epoch[n050]"] *= 2.0
    fresh.write_text(json.dumps(raw_doc(regressed)))
    assert main(["check", str(fresh), "--reference", str(summary)]) == 1


def test_missing_sweep_point_skipped(files, capsys):
    """A reference sweep point absent from the fresh run is skipped —
    CI's scale-smoke job runs a subset of the sweep — while a missing
    *fixed* gated benchmark still fails."""
    __, summary, __, tmp_path = files
    raw = tmp_path / "sweep_raw.json"
    raw.write_text(json.dumps(raw_doc(sweep_means())))
    assert main(["distill", str(raw), "-o", str(summary)]) == 0
    subset = {k: v for k, v in sweep_means().items()
              if "[n050]" not in k}
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(raw_doc(subset)))
    assert main(["check", str(fresh), "--reference", str(summary)]) == 0
    out = capsys.readouterr().out
    assert "test_sweep_full_epoch[n050]: not in this run" in out


def test_sweep_budget_enforced(files):
    """A 100-region full epoch above two seconds fails even with the
    regression gate wide open; a 200-region one does not (frontier)."""
    __, summary, __, tmp_path = files
    raw = tmp_path / "sweep_raw.json"
    raw.write_text(json.dumps(raw_doc(sweep_means())))
    assert main(["distill", str(raw), "-o", str(summary)]) == 0

    over = sweep_means()
    over["test_sweep_full_epoch[n100]"] = 2.5
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(raw_doc(over)))
    assert main(["check", str(fresh), "--reference", str(summary),
                 "--max-regression", "1000"]) == 1

    frontier = sweep_means()
    frontier["test_sweep_full_epoch[n200]"] = 9.0
    fresh.write_text(json.dumps(raw_doc(frontier)))
    assert main(["check", str(fresh), "--reference", str(summary),
                 "--max-regression", "1000"]) == 0


def test_sweep_only_ignores_missing_fixed_benchmarks(files, capsys):
    """CI's scale-smoke job runs the sweep alone; --sweep-only must not
    fail on the absent fixed benchmarks but still gate sweep entries."""
    __, summary, __, tmp_path = files
    raw = tmp_path / "sweep_raw.json"
    raw.write_text(json.dumps(raw_doc(sweep_means())))
    assert main(["distill", str(raw), "-o", str(summary)]) == 0
    only_sweep = {k: v for k, v in sweep_means().items() if "[" in k}
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(raw_doc(only_sweep)))
    # Without the flag the missing fixed benchmarks fail the gate.
    assert main(["check", str(fresh), "--reference", str(summary)]) == 1
    assert main(["check", str(fresh), "--reference", str(summary),
                 "--sweep-only"]) == 0
    assert "skipped (--sweep-only)" in capsys.readouterr().out
    regressed = dict(only_sweep)
    regressed["test_sweep_full_epoch[n050]"] *= 2.0
    fresh.write_text(json.dumps(raw_doc(regressed)))
    assert main(["check", str(fresh), "--reference", str(summary),
                 "--sweep-only"]) == 1


def test_new_sweep_point_without_reference_skipped(files, capsys):
    """A fresh sweep point with no committed reference reports but does
    not gate — its budget is still enforced."""
    __, summary, __, tmp_path = files
    raw = tmp_path / "sweep_raw.json"
    raw.write_text(json.dumps(raw_doc(sweep_means())))
    assert main(["distill", str(raw), "-o", str(summary)]) == 0
    extra = sweep_means()
    extra["test_sweep_full_epoch[n075]"] = 0.5
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(raw_doc(extra)))
    assert main(["check", str(fresh), "--reference", str(summary)]) == 0
    out = capsys.readouterr().out
    assert "test_sweep_full_epoch[n075] (75 regions): no committed " \
        "reference, skipping" in out

    extra["test_sweep_full_epoch[n075]"] = 3.0  # breaks the budget
    fresh.write_text(json.dumps(raw_doc(extra)))
    assert main(["check", str(fresh), "--reference", str(summary)]) == 1


# -------------------------------------------------------- docs table


@pytest.fixture()
def summary_with_baseline(files):
    raw, summary, __, tmp_path = files
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(raw_doc(
        {TABLE_ROWS[name][1]: 0.250 for name in GATED})))
    assert main(["distill", str(raw), "-o", str(summary),
                 "--baseline", str(baseline)]) == 0
    return summary, tmp_path


def test_table_renders_before_after_speedup(summary_with_baseline, capsys):
    summary, __ = summary_with_baseline
    capsys.readouterr()
    assert main(["table", "--reference", str(summary)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| benchmark | before | after | speedup |"
    assert len(lines) == 2 + len(GATED)
    for name, line in zip(GATED, lines[2:]):
        assert line.startswith(f"| `{name}`")
        # 250 ms -> 20 ms; step 1 keeps its pre-refactor name as before.
        assert line.endswith("| 250.0 ms | 20.0 ms | 12x |")


def test_table_check_detects_drift(summary_with_baseline, capsys):
    summary, tmp_path = summary_with_baseline
    capsys.readouterr()
    assert main(["table", "--reference", str(summary)]) == 0
    rendered = capsys.readouterr().out
    doc = tmp_path / "performance.md"
    doc.write_text(f"intro\n\n{TABLE_BEGIN}\n{rendered}{TABLE_END}\n\ntail\n")
    assert main(["table", "--reference", str(summary),
                 "--check", str(doc)]) == 0
    doc.write_text(doc.read_text().replace("20.0 ms", "12.0 ms", 1))
    assert main(["table", "--reference", str(summary),
                 "--check", str(doc)]) == 1
    assert "differs" in capsys.readouterr().err
    doc.write_text("no markers here\n")
    assert main(["table", "--reference", str(summary),
                 "--check", str(doc)]) == 1


def test_committed_performance_doc_matches_committed_ledger(capsys):
    """What the perf-smoke CI step runs, so drift fails locally too."""
    assert main(["table", "--reference", str(ROOT / "BENCH_control.json"),
                 "--check", str(ROOT / "docs" / "performance.md")]) == 0
    assert "table matches" in capsys.readouterr().out


def test_ledger_and_gates_name_only_defined_benchmarks():
    """A deleted benchmark cannot leave an orphan reference row or an
    orphan gate: every name resolves to a `test_*` function in
    bench_scalability.py (parsed, so pytest-benchmark is not needed)."""
    tree = ast.parse(
        (ROOT / "benchmarks" / "bench_scalability.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("test_")}
    ledger = json.loads((ROOT / "BENCH_control.json").read_text())["current"]
    ledger_bases = {(parse_sweep_name(name) or (name,))[0] for name in ledger}
    for where, names in (("BENCH_control.json", ledger_bases),
                         ("GATED", GATED), ("SWEEP_GATED", SWEEP_GATED),
                         ("BUDGETED_SWEEP_BASES", BUDGETED_SWEEP_BASES)):
        assert set(names) <= defined, \
            f"{where} names undefined benchmarks: {set(names) - defined}"
