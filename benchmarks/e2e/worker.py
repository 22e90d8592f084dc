"""One workload in one fresh process: set up, run the timed region,
check the outputs, print one JSON line.

Spawned by `cli.measure`; the only module of the benchmark that imports
the program (through `workloads`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]

#: Selfcheck handicap targets: name -> (module, class, method).
HANDICAP_TARGETS = {
    "probe_round": ("repro.dataplane.cluster", "RegionCluster", "probe_round"),
    "run_epoch": ("repro.controlplane.controller", "Controller", "run_epoch"),
}


class Handicap:
    """Stretches every call of one method by `share` of its own duration
    (a busy-wait, so the CPU stays busy) and counts what it saw —
    selfcheck: does the benchmark see a known slowdown of one layer, and
    only where that layer runs?"""

    def __init__(self, target: str, share: float,
                 clock: Callable[[], float]):
        import importlib
        module, cls, attr = HANDICAP_TARGETS[target]
        self.owner = getattr(importlib.import_module(module), cls)
        self.attr = attr
        self.target = target
        self.share = share
        self.calls = 0
        self.busy_s = 0.0
        self._raw = self.owner.__dict__[attr]
        handicap, fn = self, self._raw

        def slowed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            handicap.calls += 1
            handicap.busy_s += end - start
            deadline = end + handicap.share * (end - start)
            while clock() < deadline:
                pass
            return result

        setattr(self.owner, attr, slowed)

    def restore(self) -> None:
        setattr(self.owner, self.attr, self._raw)

    def report(self) -> Dict[str, Any]:
        return {"target": self.target, "share": self.share,
                "calls": self.calls, "busy_s": self.busy_s}


def environment() -> Dict[str, Any]:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "platform": platform.platform()}


def check_checkout() -> Optional[str]:
    """The program under test must be this checkout's, not an installed
    copy from somewhere else."""
    import repro
    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        return f"repro imported from {source}, not from {ROOT / 'src'}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--world-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() when the parent spawned us")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--handicap", default=None,
                        metavar="TARGET:SHARE")
    args = parser.parse_args(argv)

    from . import metrics
    from .hostclock import Stopwatch
    from .tracing import Tracer, install

    watch = Stopwatch()
    tracer = Tracer(clock=watch.now)
    handicap = None
    try:
        # Set-up is sampled like the timed region; what ran before the
        # stopwatch (interpreter start, numpy) goes by the same speed.
        unsampled_s = time.time() - args.t0
        with watch:
            from .workloads import WORKLOADS  # imports the program
            wrong_checkout = check_checkout()
            if wrong_checkout:
                print(f"error: {wrong_checkout}", file=sys.stderr)
                return 3
            if args.trace:
                install(tracer)
            if args.handicap:
                target, share = args.handicap.split(":")
                handicap = Handicap(target, float(share), watch.now)
            workload = WORKLOADS[args.workload]
            inputs = workload.build(args.seed, args.world_seed, args.seconds,
                                    Path(args.workdir))
        setup = watch.take()
        # Undisturbed seconds, like every host-time metric.
        setup_s = (unsampled_s + setup.wall_s) * setup.speed
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        gc.collect()
        outcome = workload.run(inputs, watch, tracer)
        timing = watch.take()
    finally:
        tracer.restore()
        if handicap is not None:
            handicap.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values, detail = metrics.end_to_end(outcome, timing, setup_s,
                                        peak_rss_mb)
    doc: Dict[str, Any] = {
        "end_to_end": values, "detail": detail, "counts": outcome.counts,
        "failures": outcome.failures, "env": environment(),
        "setup_wall_s": unsampled_s + setup.wall_s,
    }
    if args.trace:
        doc["per_layer"] = metrics.per_layer(tracer, outcome, timing.wall_s)
    if handicap is not None:
        doc["handicap"] = handicap.report()
    print(json.dumps(doc))
    return 0
