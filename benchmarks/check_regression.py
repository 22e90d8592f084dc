"""Distill pytest-benchmark output and gate perf regressions.

Three subcommands:

``distill``
    Reduce a raw ``--benchmark-json`` file to the small, reviewable
    summary committed at the repo root (``BENCH_control.json``): mean /
    stddev / rounds per benchmark plus a machine fingerprint.  Pass
    ``--baseline`` to embed a second raw file as the frozen
    pre-refactor reference, ``--keep-baseline-from`` to carry a
    summary's over (both: the kept one plus the raw file's entries).
    ``--keep-current-from`` likewise carries a summary's current entries
    over, the raw file's replacing those of the same name, so a run of
    a few rows re-records those rows only.

``check``
    Compare a fresh raw benchmark run against the committed summary and
    fail (exit 1) if any gated benchmark's mean regressed by more than
    ``--max-regression`` (a fraction; CI uses 0.25).  Absolute numbers
    differ across machines, so the gate is deliberately loose — it
    exists to catch "someone re-introduced the 2·N² scalar loop", not
    5% noise.  Parameterized region-count entries
    (``test_sweep_*[nNNN]``, ``test_probe_instant[nNNN]``,
    ``test_link_series_block[nNNN]``, ``test_cluster_install[nNNN]``,
    ``test_reaction_plans[nNNN]``, ``test_sweep_underlay_build[nNNN]``,
    ``test_underlay_build_paper[nNNN]``, ``test_sweep_demand_build[nNNN]``,
    ``test_grid_epoch[nNNN]``, ``test_demand_epoch[nNNN]``) are gated
    per point: points missing
    from the fresh run are skipped (CI runs a subset of the sweep), and
    full-epoch points must additionally beat the hard two-second epoch
    budget up to the per-benchmark region cap in
    ``BUDGETED_SWEEP_BASES`` (100 regions).

``table``
    Render the markdown table ``docs/performance.md`` carries between
    marker comments, from the committed summary: the before/after/
    speedup table of the fixed control benchmarks and, where the
    summary holds them, of one probing instant of the event engine,
    one block of link series of the grid engine, one region's
    install plus a scale-up, the planet-scale control epoch with its
    reaction-plan pass, the underlay builds (planet scale and the
    paper's), the planet-scale demand build, one epoch of the grid
    engine and one epoch of the planet-scale demand path
    (``baseline_pre_refactor`` vs ``current``).
    ``--check docs/performance.md`` fails (exit 1) when the committed
    block is not byte-equal to its rendering, so the doc cannot drift
    from the ledger.

Usage::

    python -m pytest benchmarks/bench_scalability.py \
        --benchmark-json=bench.json
    python benchmarks/check_regression.py distill bench.json \
        -o BENCH_control.json
    python benchmarks/check_regression.py check bench.json \
        --reference BENCH_control.json --max-regression 0.25
    python benchmarks/check_regression.py table --check docs/performance.md
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from typing import Dict, Optional, Tuple

#: Benchmarks whose means the ``check`` subcommand gates.  New
#: benchmarks start ungated until a reference lands in the summary.
#: These are *fixed* names: each must be present in every gated run.
GATED = (
    "test_path_control_paper_scale_snapshot",
    "test_full_two_step_control_paper_scale",
    "test_path_control_double_scale",
)

#: Rows of the ``table`` subcommand, `GATED` first and in its order:
#: benchmark -> (label suffix, benchmark whose ``baseline_pre_refactor``
#: entry is its "before").  The pre-refactor stack's step 1 was
#: measured as ``test_path_control_paper_scale`` (a scalar link-state
#: callback per link), which stays the step-1 row's "before".  The
#: probing-instant rows (before: two scalar draws per burst from
#: per-gateway generators; at 100 regions, one array pass per cluster),
#: the link-series-block rows
#: (before: every term of the link model per hop and instant), the
#: cluster-install row (before: one forwarding table per gateway), the
#: planet-scale epoch and reaction-plan rows (before: a path object per
#: visit and per plan candidate) and the underlay- and demand-build rows
#: (before: one timeline compile and one numpy stream constructor per
#: link or pair), the grid-epoch row (before: each path hop's link
#: truth evaluated twice, the reaction evaluated pair by pair) and the
#: demand-epoch row (before: a dict matrix sorted per epoch, one
#: predictor object per pair) appear once the summary holds them.
TABLE_ROWS = {
    "test_path_control_paper_scale_snapshot":
        (" (step 1)", "test_path_control_paper_scale"),
    "test_full_two_step_control_paper_scale":
        ("", "test_full_two_step_control_paper_scale"),
    "test_path_control_double_scale":
        (" (22 regions)", "test_path_control_double_scale"),
    "test_probe_instant[n011]":
        (" (11 regions, 220 links)", "test_probe_instant[n011]"),
    "test_probe_instant[n050]":
        (" (50 regions, 4 900 links)", "test_probe_instant[n050]"),
    "test_probe_instant[n100]":
        (" (100 regions, 19 800 links)", "test_probe_instant[n100]"),
    "test_link_series_block[n011]":
        (" (11 regions, 91 hops x 750 bursts)",
         "test_link_series_block[n011]"),
    "test_link_series_block[n100]":
        (" (100 regions, 162 hops x 809 instants)",
         "test_link_series_block[n100]"),
    "test_cluster_install[n011]":
        (" (2 000 rows into 4 gateways, then 4 -> 8 -> 4)",
         "test_cluster_install[n011]"),
    "test_sweep_full_epoch[n100]":
        (" (100 regions, 19 800 cohorts)", "test_sweep_full_epoch[n100]"),
    "test_sweep_full_epoch[n200]":
        (" (200 regions, 79 600 cohorts)", "test_sweep_full_epoch[n200]"),
    "test_reaction_plans[n100]":
        (" (100 regions, one Algorithm 2 pass)",
         "test_reaction_plans[n100]"),
    "test_sweep_underlay_build[n100]":
        (" (100 regions, 19 800 links, 1 h of timelines)",
         "test_sweep_underlay_build[n100]"),
    "test_underlay_build_paper[n011]":
        (" (11 regions, 220 links, 2 days of timelines)",
         "test_underlay_build_paper[n011]"),
    "test_sweep_demand_build[n100]":
        (" (100 regions, 9 900 pairs)", "test_sweep_demand_build[n100]"),
    "test_grid_epoch[n011]":
        (" (11 regions, 110 pairs, one `EpochSimulator` epoch)",
         "test_grid_epoch[n011]"),
    "test_demand_epoch[n100]":
        (" (100 regions, 9 900 pairs: sample, SIB, predict, cohorts)",
         "test_demand_epoch[n100]"),
}

#: Marker comments around the rendered table in docs/performance.md.
TABLE_BEGIN = ("<!-- control-loop-table:begin (generated: python "
               "benchmarks/check_regression.py table) -->")
TABLE_END = "<!-- control-loop-table:end -->"

#: Parameterized region-count benchmarks, gated per point.
#: Unlike `GATED`, a sweep entry that is absent from the fresh run is
#: *skipped*, not failed — CI's scale-smoke job deliberately runs a
#: subset of the sweep (``-k "sweep and (n011 or n100 or n200)"``), and
#: perf-smoke, which runs the probing instant, the link-series block,
#: the cluster install, the reaction-plan pass, the paper-scale
#: underlay build, the grid epoch and the demand epoch, none of it.
SWEEP_GATED = (
    "test_probe_instant",
    "test_link_series_block",
    "test_cluster_install",
    "test_reaction_plans",
    "test_sweep_underlay_build",
    "test_underlay_build_paper",
    "test_sweep_demand_build",
    "test_grid_epoch",
    "test_demand_epoch",
    "test_sweep_snapshot_build",
    "test_sweep_path_control",
    "test_sweep_full_epoch",
)

#: The paper's bound: the two-step control computation finishes in 2 s.
PAPER_BOUND_S = 2.0

#: The sweep's hard per-epoch budget, enforced per benchmark base name
#: for sweep points at or below the mapped region count (mirrors
#: benchmarks/bench_scalability.py: EPOCH_BUDGET_S / BUDGET_MAX_REGIONS).
EPOCH_BUDGET_S = 2.0
BUDGET_MAX_REGIONS = 100
BUDGETED_SWEEP_BASES = {
    "test_sweep_full_epoch": BUDGET_MAX_REGIONS,
}

#: ``test_sweep_full_epoch[n100]`` -> (``test_sweep_full_epoch``, 100).
_PARAM_RE = re.compile(r"^(?P<base>[^\[]+)\[n(?P<regions>\d+)\]$")


def parse_sweep_name(name: str) -> Optional[Tuple[str, int]]:
    """(base, n_regions) for a parameterized sweep benchmark name, or
    None for fixed (unparameterized) names."""
    m = _PARAM_RE.match(name)
    if not m:
        return None
    return m.group("base"), int(m.group("regions"))


def _load(path: str) -> Dict:
    return json.loads(pathlib.Path(path).read_text())


def summarise_raw(doc: Dict) -> Dict[str, Dict[str, float]]:
    """name -> {mean_s, stddev_s, min_s, rounds} from pytest-benchmark."""
    out: Dict[str, Dict[str, float]] = {}
    for bench in doc.get("benchmarks", ()):
        stats = bench["stats"]
        out[bench["name"]] = {
            "mean_s": round(stats["mean"], 6),
            "stddev_s": round(stats["stddev"], 6),
            "min_s": round(stats["min"], 6),
            "rounds": stats["rounds"],
        }
    return out


def machine_fingerprint(doc: Dict) -> Dict[str, str]:
    info = doc.get("machine_info", {})
    return {
        "cpu": str(info.get("cpu", {}).get("brand_raw", "unknown")),
        "python": str(info.get("python_version", "unknown")),
        "system": str(info.get("system", "unknown")),
    }


def distill(args: argparse.Namespace) -> int:
    raw = _load(args.raw)
    summary = {
        "schema": "xron-bench-control/1",
        "note": ("Distilled from pytest-benchmark runs of "
                 "benchmarks/bench_scalability.py; regenerate with "
                 "benchmarks/check_regression.py distill. "
                 "'baseline_pre_refactor' holds the frozen 'before' of "
                 "each table row (the scalar-loop control stack; the "
                 "one-object-per-link probing instant, at 100 regions "
                 "the one round per cluster the monitoring block "
                 "replaced; the per-hop, "
                 "per-instant link series; one forwarding table per "
                 "gateway; the object-per-visit control solve for the "
                 "sweep and reaction-plan entries; one timeline "
                 "compile and one numpy stream constructor per link or "
                 "pair for the underlay and demand builds; a dict "
                 "matrix sorted per epoch and one predictor object per "
                 "pair for the demand epoch) — keep it for the speedup "
                 "provenance."),
        "machine": machine_fingerprint(raw),
        "current": {},
    }
    if args.keep_current_from:
        summary["current"].update(
            _load(args.keep_current_from)["current"])
    summary["current"].update(summarise_raw(raw))
    baseline = {}
    if args.keep_baseline_from:
        baseline.update(_load(args.keep_baseline_from).get(
            "baseline_pre_refactor", {}))
    if args.baseline:
        baseline.update(summarise_raw(_load(args.baseline)))
    if baseline:
        summary["baseline_pre_refactor"] = baseline
    out = pathlib.Path(args.output)
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(summary['current'])} benchmarks)")
    return 0


def _compare_entry(name: str, reference: Dict, fresh: Dict,
                   max_regression: float, failures: list) -> None:
    """Report one name's fresh mean vs reference, recording failures."""
    ref_mean = reference[name]["mean_s"]
    got_mean = fresh[name]["mean_s"]
    ratio = got_mean / ref_mean if ref_mean > 0 else float("inf")
    status = "ok"
    if got_mean > ref_mean * (1.0 + max_regression):
        status = "REGRESSED"
        failures.append(
            f"{name}: mean {got_mean * 1e3:.2f} ms vs reference "
            f"{ref_mean * 1e3:.2f} ms ({ratio:.2f}x, gate "
            f"{1.0 + max_regression:.2f}x)")
    print(f"  - {name}: {got_mean * 1e3:.2f} ms "
          f"(reference {ref_mean * 1e3:.2f} ms, {ratio:.2f}x) {status}")


def check(args: argparse.Namespace) -> int:
    reference = _load(args.reference)["current"]
    fresh = summarise_raw(_load(args.raw))
    failures = []

    if args.sweep_only:
        print("fixed gated benchmarks: skipped (--sweep-only)")
    else:
        print("fixed gated benchmarks:")
        for name in GATED:
            if name not in reference:
                print(f"  - {name}: no committed reference, skipping")
                continue
            if name not in fresh:
                failures.append(f"{name}: benchmark missing from this run")
                continue
            _compare_entry(name, reference, fresh, args.max_regression,
                           failures)
            if fresh[name]["mean_s"] > PAPER_BOUND_S:
                failures.append(
                    f"{name}: mean {fresh[name]['mean_s']:.2f} s breaks "
                    f"the paper's {PAPER_BOUND_S:.0f} s bound")

    print("region-count sweep (per sweep point):")
    seen_any = False
    for name in sorted(fresh):
        parsed = parse_sweep_name(name)
        if parsed is None or parsed[0] not in SWEEP_GATED:
            continue
        base, n_regions = parsed
        seen_any = True
        if name not in reference:
            print(f"  - {name} ({n_regions} regions): no committed "
                  "reference, skipping")
        else:
            _compare_entry(name, reference, fresh, args.sweep_max_regression,
                           failures)
        if n_regions <= BUDGETED_SWEEP_BASES.get(base, -1):
            got_mean = fresh[name]["mean_s"]
            if got_mean > EPOCH_BUDGET_S:
                failures.append(
                    f"{name}: full-epoch mean {got_mean:.2f} s breaks the "
                    f"{EPOCH_BUDGET_S:.0f} s budget at {n_regions} regions")
            else:
                print(f"    budget: {got_mean:.2f} s < {EPOCH_BUDGET_S:.0f} s "
                      f"at {n_regions} regions ok")
    # Reference sweep points absent from this run are fine: CI's
    # scale-smoke job runs a subset of the sweep.
    for name in sorted(reference):
        parsed = parse_sweep_name(name)
        if (parsed is not None and parsed[0] in SWEEP_GATED
                and name not in fresh):
            print(f"  - {name}: not in this run (subset sweep), skipping")
    if not seen_any:
        print("  (none in this run)")

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  * {f}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


def render_table(summary: Dict) -> str:
    """The markdown before/after/speedup table of `TABLE_ROWS`."""
    before, after = summary["baseline_pre_refactor"], summary["current"]
    lines = ["| benchmark | before | after | speedup |", "|---|---|---|---|"]
    for name, (suffix, baseline_name) in TABLE_ROWS.items():
        if name not in GATED and name not in after:
            continue
        old, new = before[baseline_name]["mean_s"], after[name]["mean_s"]
        speedup = old / new
        digits = 0 if speedup >= 10 else 1
        lines.append(f"| `{name}`{suffix} | {old * 1e3:.1f} ms "
                     f"| {new * 1e3:.1f} ms | {speedup:.{digits}f}x |")
    return "\n".join(lines) + "\n"


def table(args: argparse.Namespace) -> int:
    rendered = render_table(_load(args.reference))
    if args.check is None:
        sys.stdout.write(rendered)
        return 0
    text = pathlib.Path(args.check).read_text()
    begin, end = text.find(TABLE_BEGIN), text.find(TABLE_END)
    if begin < 0 or end < begin:
        print(f"{args.check}: table markers not found", file=sys.stderr)
        return 1
    committed = text[begin + len(TABLE_BEGIN):end].strip("\n") + "\n"
    if committed != rendered:
        print(f"{args.check}: the control-loop table differs from "
              f"{args.reference}; replace the block between the markers "
              "with:\n\n" + rendered, file=sys.stderr)
        return 1
    print(f"{args.check}: control-loop table matches {args.reference}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_distill = sub.add_parser("distill", help="raw json -> summary json")
    p_distill.add_argument("raw", help="pytest-benchmark --benchmark-json file")
    p_distill.add_argument("-o", "--output", default="BENCH_control.json")
    p_distill.add_argument("--baseline",
                           help="raw json of the pre-refactor code to embed "
                                "(with --keep-baseline-from: its entries "
                                "join the kept baseline)")
    p_distill.add_argument("--keep-baseline-from",
                           help="carry baseline_pre_refactor over from an "
                                "existing summary file")
    p_distill.add_argument("--keep-current-from",
                           help="carry the current entries over from an "
                                "existing summary; the raw file's entries "
                                "replace those of the same name")
    p_distill.set_defaults(func=distill)

    p_check = sub.add_parser("check", help="gate a fresh run vs the summary")
    p_check.add_argument("raw", help="pytest-benchmark --benchmark-json file")
    p_check.add_argument("--reference", default="BENCH_control.json")
    p_check.add_argument("--max-regression", type=float, default=0.25,
                         help="allowed fractional mean increase (0.25 = 25%%)")
    p_check.add_argument("--sweep-max-regression", type=float, default=0.50,
                         help="allowed fractional mean increase for sweep "
                              "entries — looser than the fixed gate because "
                              "sweep points run few rounds (their hard "
                              "guarantee is the epoch budget, which is "
                              "absolute)")
    p_check.add_argument("--sweep-only", action="store_true",
                         help="gate only the region-count sweep entries "
                              "(CI's scale-smoke job runs the sweep alone, "
                              "so the fixed benchmarks are absent by design)")
    p_check.set_defaults(func=check)

    p_table = sub.add_parser("table", help="summary json -> markdown table")
    p_table.add_argument("--reference", default="BENCH_control.json")
    p_table.add_argument("--check", metavar="DOC",
                         help="compare with the block between the table "
                              "markers in DOC instead of printing")
    p_table.set_defaults(func=table)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
