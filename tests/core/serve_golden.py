"""Golden digests of an armed `repro serve` run's telemetry and checkpoint.

The armed service instant (probing, the report-fault seam, membership,
SLO samples and telemetry records) is tuned for speed, and none of that
tuning may move a byte of what the service writes.  This harness runs
the deployment `repro serve --regions 3 --chaos --slo --stream
--checkpoint` builds, on the three-region world with every pair tracked
and the soak rotation shortened so every fault kind the static fleet
can meet fires (report drop and staleness, membership churn, probing
blackouts, partitions, crashes, outages).  It digests:

* the telemetry stream: every event and metrics line of every part, in
  emission order, with the wall-clock fields (`VOLATILE`) removed at
  any depth and the rest re-encoded with sorted keys.  Part headers are
  left out: a part rotates at a byte count, and the volatile fields'
  widths move that boundary by a record now and then;
* the checkpoint envelope's bytes.

``tests/_golden/serve_telemetry.json`` holds the digests;
``tests/core/test_serve_golden.py`` replays the run and compares.

Regenerate (only when an intentional behaviour change lands):

    PYTHONPATH=src python -m tests.core.serve_golden --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict

FIXTURE = Path(__file__).resolve().parents[1] / "_golden" / \
    "serve_telemetry.json"

#: Fields that carry wall-clock time, process state (memory, open file
#: descriptors, child processes) or a host path: the heartbeat's file
#: count, for one, depends on what else the process holds open.
VOLATILE = frozenset({"duration_ms", "wall_s", "rss_kb", "path",
                      "open_fds", "children"})

SEED = 7
WORLD_SEED = 7
DURATION_S = 1125.0
CHAOS_PERIOD_S = 90.0
EPOCH_S = 60.0
MAX_BYTES = 256 * 1024


def _strip(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in VOLATILE}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def run_serve(workdir: Path) -> Dict[str, Any]:
    """Run the armed service once into ``workdir``; returns its result,
    its stream and the checkpoint's path."""
    from repro import obs
    from repro.controlplane import membership, regional_control
    from repro.core import EventDrivenXRON, SimulationConfig, xron
    from repro.core.service import (ServiceConfig, XRONService,
                                    build_soak_schedule)
    from repro.obs.slo import SLOEngine
    from repro.qoe.metrics import qoe_badness
    from repro.resilience.config import resilience
    from repro.traffic.demand import DemandModel
    from repro.underlay import topology
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.regions import default_regions

    regions = default_regions()[:3]
    schedule = build_soak_schedule(0.0, DURATION_S,
                                   [r.code for r in regions],
                                   period_s=CHAOS_PERIOD_S)
    with obs.capture() as hub:
        stream = hub.attach_stream(workdir / "telemetry.jsonl",
                                   max_bytes=MAX_BYTES,
                                   meta={"command": "serve",
                                         "mode": "chaos"})
        slo = SLOEngine(badness=qoe_badness())
        underlay = topology.build_underlay(
            regions, UnderlayConfig(horizon_s=DURATION_S + 4 * EPOCH_S),
            seed=WORLD_SEED)
        engine = EventDrivenXRON(
            underlay, DemandModel(regions, seed=WORLD_SEED),
            variant=replace(xron(), elastic=False),
            sim_config=SimulationConfig(epoch_s=EPOCH_S, eval_step_s=60.0,
                                        seed=SEED, demand_scale=0.05,
                                        initial_gateways=4),
            tracked_pairs=list(underlay.pairs),
            faults=schedule, resilience=resilience(),
            membership=membership(), regional=regional_control(), slo=slo)
        checkpoint = workdir / "checkpoint.json"
        service = XRONService(engine, ServiceConfig(
            duration_s=DURATION_S, compress=0.0, checkpoint_path=checkpoint,
            verbose=False))
        result = service.run()
        slo.close()
        hub.detach_stream(close=True)
        engine.close()
    return {"result": result, "stream": stream, "checkpoint": checkpoint}


def digests() -> Dict[str, Any]:
    """The golden record of one run (see module docstring)."""
    with tempfile.TemporaryDirectory() as tmp:
        run = run_serve(Path(tmp))
        h = hashlib.sha256()
        lines = 0
        kinds: Dict[str, int] = {}
        for part in run["stream"].paths:
            with part.open() as fh:
                for line in fh:
                    doc = _strip(json.loads(line))
                    if doc["record"] == "header":
                        continue
                    h.update(json.dumps(doc, sort_keys=True).encode())
                    h.update(b"\n")
                    lines += 1
                    if doc["record"] == "event":
                        kinds[doc["kind"]] = kinds.get(doc["kind"], 0) + 1
        checkpoint = hashlib.sha256(run["checkpoint"].read_bytes())
        return {
            "telemetry_sha256": h.hexdigest(),
            "telemetry_lines": lines,
            "event_kinds": dict(sorted(kinds.items())),
            "fault_counters": run["result"].eventsim.fault_counters,
            "checkpoint_sha256": checkpoint.hexdigest(),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="overwrite the committed fixture")
    args = parser.parse_args(argv)
    record = {"seed": SEED, "world_seed": WORLD_SEED,
              "duration_s": DURATION_S, **digests()}
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.write:
        FIXTURE.write_text(text)
        print(f"wrote {FIXTURE}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
