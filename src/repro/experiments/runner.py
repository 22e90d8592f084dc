"""Run every experiment and print a consolidated report.

Usage::

    python -m repro.experiments.runner                # quick, sequential
    python -m repro.experiments.runner --full         # paper-like scales
    python -m repro.experiments.runner --parallel 4   # process pool
    python -m repro.experiments.runner --list         # registry overview
    python -m repro.experiments.runner --manifest m.json

The experiments themselves are described declaratively in
``repro.experiments.registry``; this module is only the CLI: it selects
specs, dispatches them through ``repro.experiments.orchestrator``
(sequentially or across a process pool), prints the per-experiment
report in canonical registry order, and optionally writes the
structured JSON run manifest (``repro.experiments.export``).

Per-experiment output lines are byte-identical between sequential and
parallel runs: both paths seed the global RNGs with the spec's
deterministic seed before the experiment body runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments import orchestrator, registry
from repro.experiments.base import format_table
from repro.experiments.export import write_manifest
from repro.experiments.orchestrator import RunRecord


def _print_record(record: RunRecord) -> None:
    """The historical report block for one experiment."""
    print(f"=== {record.name} " + "=" * max(0, 66 - len(record.name)))
    for line in record.lines:
        print(line)
    if not record.ok:
        print(f"FAILED ({record.status})")
        if record.traceback:
            print(record.traceback.rstrip("\n"))
    suffix = f" [{record.retries} retries]" if record.retries else ""
    print(f"--- {record.wall_s:.1f}s{suffix}")
    print()


def _list_registry(specs) -> None:
    rows = [[s.name, " ".join(s.tags), s.resolved_seed(),
             registry.ENTRYPOINT] for s in specs]
    for line in format_table(["experiment", "tags", "seed", "entrypoint"],
                             rows):
        print(line)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-like experiment scales (slow)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="run only the named experiments (e.g. fig13)")
    parser.add_argument("--tags", nargs="*", default=None,
                        help="run only experiments carrying any given tag")
    parser.add_argument("--list", action="store_true",
                        help="list the selected experiments and exit")
    parser.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="fan out across N worker processes "
                             "(0/1 = sequential)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-experiment wall-clock budget in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="max resubmissions per transiently-failed "
                             "experiment (parallel mode; default 1)")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="write a structured JSON run manifest")
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="capture metrics + trace events per "
                             "experiment and write a merged telemetry "
                             "JSONL (see docs/observability.md)")
    args = parser.parse_args(argv)

    specs = registry.select(only=args.only, tags=args.tags)
    if not specs:
        print("no experiments match "
              f"--only {args.only or []} --tags {args.tags or []}",
              file=sys.stderr)
        return 2

    if args.list:
        _list_registry(specs)
        return 0

    names = [s.name for s in specs]
    t0 = time.perf_counter()
    if args.parallel and args.parallel > 1:
        # Print in canonical order once everything lands; stream
        # completion progress to stderr in the meantime.
        def _progress(record: RunRecord) -> None:
            print(f"[{record.status}] {record.name} "
                  f"({record.wall_s:.1f}s)", file=sys.stderr, flush=True)

        records = orchestrator.run_parallel(
            names, full=args.full, workers=args.parallel,
            timeout_s=args.timeout, retries=args.retries,
            telemetry=bool(args.telemetry), on_record=_progress)
        for record in records:
            _print_record(record)
    else:
        records = orchestrator.run_sequential(
            names, full=args.full, timeout_s=args.timeout,
            telemetry=bool(args.telemetry), on_record=_print_record)
    total_wall_s = time.perf_counter() - t0

    if args.telemetry:
        from repro.obs.export import write_merged_jsonl
        runs = [{"exp": r.name, "events": r.events or [],
                 "metrics": r.metrics or {}}
                for r in records]
        tel_path = write_merged_jsonl(
            args.telemetry, runs,
            meta={"suite": "full" if args.full else "quick"})
        print(f"telemetry: {tel_path}", file=sys.stderr)

    if args.manifest:
        path = write_manifest(
            records, args.manifest,
            suite="full" if args.full else "quick",
            mode="parallel" if args.parallel > 1 else "sequential",
            workers=args.parallel if args.parallel > 1 else 1,
            total_wall_s=total_wall_s,
            rollup=orchestrator.rollup_records(records),
            telemetry_path=args.telemetry)
        print(f"manifest: {path}", file=sys.stderr)

    failures = [r for r in records if not r.ok]
    print(f"{len(records) - len(failures)}/{len(records)} experiments ok "
          f"in {total_wall_s:.1f}s", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
