"""Command line of the end-to-end benchmark.

``run``        measure workloads (each in a fresh single-threaded
               subprocess), print every metric by name with its unit,
               check the outputs, write one JSON document;
``verify``     two result sets of the same commit must agree: simulated
               metrics bit-equal, host-time metrics within their bounds;
``selfcheck``  slow one layer by a known amount and see the benchmark
               report it where that layer runs, and only there;
``spec``       print BENCHMARK.json as the code defines it.

This module never imports the program; `worker` does, in the subprocess.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import metrics

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).resolve().with_name("run.py")
#: Scratch and result files; inside the checkout, ignored by git.
STATE_DIR = ROOT / ".bench_e2e"

#: name -> why it is here (one line; BENCHMARK.json repeats it).
WORKLOADS = {
    "event_n11":
        "paper-scale event engine as `repro demo` users meet it: probing "
        "and scalar link evaluation are ~97% of the blocking path, the "
        "controller <3%",
    "serve_chaos_n3":
        "the same engine as an asyncio soak service with faults, two-phase "
        "installs, checkpoints, SLO and streamed telemetry: the only run "
        "of resilience, faults, obs and core.service",
    "epoch_n11":
        "the grid engine behind every paper figure: bypasses probing; "
        "vectorised path/link series, the demand model and monitoring "
        "push dominate",
    "control_n100":
        "controller replay at planet scale: the only workload where "
        "controlplane is ~97% of the blocking path and the 2 s epoch "
        "budget is visible; dataplane and traffic do nothing",
}
WORKLOAD_NAMES = tuple(WORKLOADS)
#: ``run_seconds`` of BENCHMARK.json: the timed region each workload is
#: calibrated to on the reference box.
DEFAULT_SECONDS = 15
DEFAULT_SEED = 7
#: Seed of the topology every run shares (see workloads.py); `verify`
#: also checks the outputs in a held-out world and seed.
WORLD_SEED = 7
HELD_OUT_SEED = 23
#: A worker must finish well inside the driver's 180 s per run.
WORKER_TIMEOUT_S = 170

#: Wall seconds `measure` may spend on extra set-up samples.
SETUP_SAMPLING_BUDGET_S = 4.0

COVERAGE_MIN = 0.95
OVERHEAD_MAX = 0.25


class WorkerError(RuntimeError):
    """A worker subprocess failed (non-zero exit, timeout, no result)."""


# --------------------------------------------------------------------------
# Running workers
# --------------------------------------------------------------------------
def spawn_worker(workload: str, seed: int, seconds: float, *, trace: int,
                 workdir: Path, world_seed: int, setup_only: bool = False,
                 handicap: Optional[str] = None) -> Dict[str, Any]:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"  # one process, one thread
    argv = [sys.executable, str(RUN_PY), "worker", "--workload", workload,
            "--seed", str(seed), "--world-seed", str(world_seed),
            "--seconds", repr(float(seconds)),
            "--trace", str(int(trace)), "--workdir", str(workdir),
            "--t0", repr(time.time())]
    if setup_only:
        argv.append("--setup-only")
    if handicap:
        argv += ["--handicap", handicap]
    try:
        proc = subprocess.run(argv, env=env, cwd=str(ROOT),
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload}: worker exceeded "
                          f"{WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload}: worker exited with code "
                          f"{proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, *, trace: bool,
            world_seed: int = WORLD_SEED, setup_samples: bool = True,
            handicap: Optional[str] = None) -> Dict[str, Any]:
    """One workload, end to end: the untraced run (plus extra set-up
    samples), and with `trace` a traced run of the same inputs."""
    workdir = STATE_DIR / f"work-{os.getpid()}-{workload}"

    def fresh_workdir() -> Path:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        return workdir

    try:
        plain = spawn_worker(workload, seed, seconds, trace=0,
                             world_seed=world_seed, workdir=fresh_workdir(),
                             handicap=handicap)
        record: Dict[str, Any] = {
            "workload": workload, "seed": seed, "world_seed": world_seed,
            "seconds": seconds, "end_to_end": plain["end_to_end"],
            "detail": plain["detail"], "counts": plain["counts"],
            "env": plain["env"],
            "failures": list(plain["failures"]), "warnings": [],
            "setup_samples": [plain["end_to_end"]["setup_s"]],
        }
        if "handicap" in plain:
            record["handicap"] = plain["handicap"]
        if setup_samples:
            # Set-up is short and noisy: sample it in up to two further
            # fresh processes while the budget lasts (none when one
            # set-up costs more than the budget) and report the median.
            spent = 0.0
            while (len(record["setup_samples"]) < 3
                   and spent + plain["setup_wall_s"]
                   <= SETUP_SAMPLING_BUDGET_S):
                started = time.monotonic()
                record["setup_samples"].append(spawn_worker(
                    workload, seed, seconds, trace=0, world_seed=world_seed,
                    workdir=fresh_workdir(), setup_only=True)["setup_s"])
                spent += time.monotonic() - started
            record["end_to_end"]["setup_s"] = statistics.median(
                record["setup_samples"])
        if trace:
            traced = spawn_worker(workload, seed, seconds, trace=1,
                                  world_seed=world_seed,
                                  workdir=fresh_workdir())
            record["per_layer"] = finish_trace(
                plain, traced, record["failures"], record["warnings"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def finish_trace(plain: Dict[str, Any], traced: Dict[str, Any],
                 failures: List[str], warnings: List[str]
                 ) -> Dict[str, float]:
    """Per-layer metrics of the traced run, checked against the
    untraced run of the same inputs."""
    layer = dict(traced["per_layer"])
    failures.extend(f"traced run: {f}" for f in traced["failures"])
    # Both walls in undisturbed seconds: the two runs are a minute
    # apart and the host's speed drifts more than tracing costs.
    untraced_wall = plain["detail"]["wall_s"] * plain["detail"]["host_speed"]
    traced_wall = traced["detail"]["wall_s"] * traced["detail"]["host_speed"]
    layer["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    if traced["counts"] != plain["counts"]:
        failures.append(f"traced run changed the work: counts "
                        f"{traced['counts']} != untraced {plain['counts']}")
    for name in metrics.SIMULATED:
        if traced["end_to_end"][name] != plain["end_to_end"][name]:
            failures.append(
                f"traced run changed {name}: "
                f"{traced['end_to_end'][name]!r} != untraced "
                f"{plain['end_to_end'][name]!r}")
    if layer["trace.coverage"] < COVERAGE_MIN:
        failures.append(f"trace.coverage {layer['trace.coverage']:.3f} < "
                        f"{COVERAGE_MIN}")
    if layer["trace.overhead_share"] >= OVERHEAD_MAX:
        # Flagged, not failed: the wrappers cost 5-12 %, and two runs a
        # minute apart on the reference box differ by that much again
        # when its speed shifts.  That the traced run did the same work
        # with the same simulated outcome is the hard check, above.
        warnings.append(f"trace.overhead_share "
                        f"{layer['trace.overhead_share']:.3f} >= "
                        f"{OVERHEAD_MAX}: read this run's shares with care")
    return layer


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------
def print_record(record: Dict[str, Any]) -> None:
    detail, counts = record["detail"], record["counts"]
    print(f"== {record['workload']}  seed {record['seed']} (world "
          f"{record['world_seed']})  "
          f"{detail['sim_s']:g} sim_s in {detail['wall_s']:.2f} s wall at "
          f"host speed {detail['host_speed']:.3f} "
          f"({detail['speed_samples']} samples, nproc "
          f"{record['env']['nproc']}) ==")
    for name, (unit, better, bound) in metrics.END_TO_END.items():
        print(f"  {name:<24} {record['end_to_end'][name]:>14.6g} {unit:<8}"
              f" ({better} is better, bound {bound:g})")
    print(f"  events_processed {counts['events_processed']}  epochs "
          f"{counts['epochs']}  checkpoints {counts['checkpoints']}  "
          f"ops_attempted {detail['ops_attempted']:.6g}  ops_failed "
          f"{detail['ops_failed']:.6g}")
    print(f"  path latency: {detail['latency_samples']} samples, tail "
          f"reported at p{detail['tail_percentile']:.4g} (p99 "
          f"{detail['path_latency_p99_ms']:.6g} ms); premium_share "
          f"{detail['premium_share']:.6g}  unserved_share "
          f"{detail['unserved_share']:.6g}; set-up samples "
          + " ".join(f"{s:.3f}" for s in record["setup_samples"]))
    if "per_layer" in record:
        units = metrics.per_layer_units()
        print("  -- per layer (traced run) --")
        for name, value in record["per_layer"].items():
            if value:
                print(f"  {name:<36} {value:>14.6g} {units[name]}")
    for warning in record["warnings"]:
        print(f"  WARNING: {warning}")
    for failure in record["failures"]:
        print(f"  FAILED CHECK: {failure}")


def contract_line(record: Dict[str, Any], trace: bool) -> str:
    """The one-line JSON result the driver reads (BENCHMARK.json)."""
    if trace:
        units = metrics.per_layer_units()
        values = record["per_layer"]
    else:
        units = {n: spec[0] for n, spec in metrics.END_TO_END.items()}
        values = record["end_to_end"]
    counts = record["counts"]
    return json.dumps({
        "correct": not record["failures"],
        # Operations driven through the program's public entry: events
        # of the event engines, control epochs of the other two.
        "attempted": int(counts["events_processed"] or counts["epochs"]),
        "failed": len(record["failures"]),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}})


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds,
                         trace=bool(args.trace),
                         setup_samples=not (args.trace and args.workload))
        print_record(record)
        records.append(record)
    out = Path(args.out) if args.out else STATE_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"records": records}, indent=1) + "\n")
    print(f"wrote {out}")
    if any(r["failures"] for r in records):
        return 1
    if args.workload:
        print(contract_line(records[0], bool(args.trace)))
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------
def result_set(seed: int, seconds: float, runs: int,
               label: str) -> Dict[str, List[Dict[str, Any]]]:
    """`runs` untraced measurements of every workload."""
    out: Dict[str, List[Dict[str, Any]]] = {}
    for name in WORKLOAD_NAMES:
        out[name] = []
        for index in range(runs):
            record = measure(name, seed, seconds, trace=False)
            print(f"[{label}] {name} run {index + 1}/{runs}: "
                  f"{record['end_to_end']['sim_s_per_wall_s']:.4g} sim_s/s"
                  + ("  FAILED: " + "; ".join(record["failures"])
                     if record["failures"] else ""), flush=True)
            out[name].append(record)
    return out


def compare_sets(first: Dict[str, List[Dict[str, Any]]],
                 second: Dict[str, List[Dict[str, Any]]]) -> List[str]:
    """Print median/quartiles/spread per workload x metric for both
    sets and return every disagreement."""
    problems: List[str] = []
    print(f"{'workload':<16}{'metric':<22}{'set':<4}{'median':>12}"
          f"{'q1':>12}{'q3':>12}{'spread':>9}")
    for name in first:
        for record in first[name] + second[name]:
            problems.extend(f"{name}: {f}" for f in record["failures"])
        for metric, (__, __, bound) in metrics.END_TO_END.items():
            medians = []
            for label, records in (("A", first[name]), ("B", second[name])):
                values = [r["end_to_end"][metric] for r in records]
                median, q1, q3, spread = metrics.quartile_spread(values)
                medians.append(median)
                print(f"{name:<16}{metric:<22}{label:<4}{median:>12.6g}"
                      f"{q1:>12.6g}{q3:>12.6g}{spread:>9.4f}")
            if metric in metrics.SIMULATED:
                values = {repr(r["end_to_end"][metric])
                          for r in first[name] + second[name]}
                if len(values) != 1:
                    problems.append(f"{name}: simulated {metric} is not "
                                    f"bit-equal across runs: "
                                    f"{sorted(values)}")
            else:
                drift = max(metrics.worse_by(metric, medians[0], medians[1]),
                            metrics.worse_by(metric, medians[1], medians[0]))
                if drift > bound:
                    problems.append(
                        f"{name}: {metric} medians {medians[0]:.6g} and "
                        f"{medians[1]:.6g} differ by {drift:.3f} > bound "
                        f"{bound:g}")
    return problems


def cmd_verify(args: argparse.Namespace) -> int:
    if args.read:
        first, second = (json.loads(Path(p).read_text()) for p in args.read)
    else:
        first = result_set(args.seed, args.seconds, args.runs, "A")
        second = result_set(args.seed, args.seconds, args.runs, "B")
        STATE_DIR.mkdir(exist_ok=True)
        (STATE_DIR / "verify-A.json").write_text(json.dumps(first))
        (STATE_DIR / "verify-B.json").write_text(json.dumps(second))
    problems = compare_sets(first, second)
    if not args.read:
        # The workloads must not be tuned to the default seed: every
        # output check also has to pass on a seed never used otherwise.
        for name in WORKLOAD_NAMES:
            record = measure(name, HELD_OUT_SEED, args.seconds, trace=False,
                             world_seed=HELD_OUT_SEED, setup_samples=False)
            print_record(record)
            problems.extend(f"{name} (held-out seed {HELD_OUT_SEED}): {f}"
                            for f in record["failures"])
    for problem in problems:
        print(f"VERIFY FAILED: {problem}")
    print("verify: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


# --------------------------------------------------------------------------
# selfcheck
# --------------------------------------------------------------------------
#: handicap target -> (workload that exercises it, workload that bypasses it)
SELFCHECK_PAIRS = {"probe_round": ("event_n11", "control_n100"),
                   "run_epoch": ("control_n100", "event_n11")}
HANDICAP_SHARE = 0.20
EXPECTED_DROP = (0.12, 0.22)


def cmd_selfcheck(args: argparse.Namespace) -> int:
    """Stretching one layer's entry point by 20 % of its own time must
    cost 12-22 % of ``sim_s_per_wall_s`` where that layer is the blocking
    path (1 - 1/(1 + 0.2 x share): 15 % at a 90 % share) and stay within
    the metric's bound where it is bypassed.

    On the exercising workload the two runs are compared at equal host
    speed, read from the stretched method's own un-stretched time, which
    both runs measure over identical work: between two eight-second runs
    the host drifts by more than the effect's window is wide."""
    bound = metrics.END_TO_END["sim_s_per_wall_s"][2]

    def run(workload: str, handicap: str) -> Dict[str, Any]:
        record = measure(workload, args.seed, args.seconds, trace=False,
                         setup_samples=False, handicap=handicap)
        if record["failures"]:
            raise WorkerError(f"{workload}: " + "; ".join(record["failures"]))
        return record

    problems: List[str] = []
    baseline = {workload: run(workload, f"{target}:0")
                for target, (workload, __) in SELFCHECK_PAIRS.items()}
    for target, (exercise, bypass) in SELFCHECK_PAIRS.items():
        seen = baseline[exercise]["handicap"]
        print(f"{target}: mean {1e3 * seen['busy_s'] / seen['calls']:.3f} ms "
              f"over {seen['calls']} calls on {exercise}, "
              f"{seen['busy_s'] / baseline[exercise]['detail']['wall_s']:.3f}"
              f" of its wall; stretched by {HANDICAP_SHARE:.0%} per call")
        for workload, lo, hi in ((exercise, *EXPECTED_DROP),
                                 (bypass, -bound, bound)):
            before = baseline[workload]
            after = run(workload, f"{target}:{HANDICAP_SHARE}")
            if workload == exercise:
                slower_host = (after["handicap"]["busy_s"]
                               / before["handicap"]["busy_s"])
                ratio = (before["detail"]["wall_s"]
                         / after["detail"]["wall_s"]) * slower_host
                how = f"at equal host speed (x{slower_host:.3f})"
            else:
                ratio = (after["end_to_end"]["sim_s_per_wall_s"]
                         / before["end_to_end"]["sim_s_per_wall_s"])
                how = f"{after['handicap']['calls']} calls stretched"
            drop = 1.0 - ratio
            ok = lo <= drop <= hi
            print(f"  {workload:<14} sim_s_per_wall_s "
                  f"{before['end_to_end']['sim_s_per_wall_s']:.5g} -> "
                  f"{after['end_to_end']['sim_s_per_wall_s']:.5g}; drop "
                  f"{100 * drop:+.1f} % {how} "
                  f"(expected {100 * lo:+.0f}..{100 * hi:+.0f} %) "
                  + ("ok" if ok else "FAILED"))
            if not ok:
                problems.append(f"{target} on {workload}: drop {drop:.3f} "
                                f"outside [{lo}, {hi}]")
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


# --------------------------------------------------------------------------
# spec
# --------------------------------------------------------------------------
def benchmark_spec() -> Dict[str, Any]:
    """BENCHMARK.json as this code defines it."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in metrics.END_TO_END.items()],
        "per_layer": [
            {"name": name, "unit": unit,
             "better": ("higher" if name in metrics.PER_LAYER_HIGHER
                        else "lower")}
            for name, unit in metrics.per_layer_units().items()],
    }


def cmd_spec(args: argparse.Namespace) -> int:
    print(json.dumps(benchmark_spec(), indent=1))
    return 0


# --------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seconds: float) -> None:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--seconds", type=float, default=seconds,
                       help="length the timed regions are sized for")

    p_run = sub.add_parser("run", help="measure workloads")
    common(p_run, DEFAULT_SECONDS)
    p_run.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                       help="one workload (default: all four)")
    p_run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                       choices=(0, 1),
                       help="also make the traced run (per-layer metrics)")
    p_run.add_argument("--out", default=None,
                       help="result document (default .bench_e2e/result.json)")
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="two result sets must agree")
    common(p_verify, DEFAULT_SECONDS)
    p_verify.add_argument("--runs", type=int, default=3,
                          help="runs per workload per set")
    p_verify.add_argument("--read", nargs=2, metavar="SET", default=None,
                          help="compare two saved sets instead of running")
    p_verify.set_defaults(fn=cmd_verify)

    p_spec = sub.add_parser("spec", help="print BENCHMARK.json")
    p_spec.set_defaults(fn=cmd_spec)

    p_self = sub.add_parser("selfcheck",
                            help="does a known slowdown of one layer show?")
    common(p_self, 8.0)
    p_self.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "worker":
        from .worker import main as worker_main
        return worker_main(argv[1:])
    if not argv or argv[0].startswith("--"):
        argv.insert(0, "run")  # the driver passes options only
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
