"""Shared harness for the partition disabled-equivalence goldens.

The partition-tolerance subsystem (soft-state membership + regional
sub-controllers) promises that runs with it *disabled* are byte-identical
to a build that predates the subsystem entirely.  To make that claim
checkable against history — not just against "the same code with the
flag off" — the fixture under ``tests/_golden/partition_disabled.json``
stores SHA-256 digests of canonical run output captured on the tree
*before* the subsystem existed.  The disabled-equivalence suite replays
the same configurations (never passing the new kwargs) and asserts the
digests still match.

Regenerate (only when an intentional behavior change lands):

    PYTHONPATH=src python -m tests.resilience.partition_golden --write
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

FIXTURE = Path(__file__).resolve().parents[1] / "_golden" / \
    "partition_disabled.json"

#: (name, with_chaos_schedule, with_resilience).  The names predate the
#: removal of the second control mode; they key the recorded digests.
CONFIGS = (
    ("monolithic-calm", False, False),
    ("monolithic-chaos", True, False),
    ("monolithic-calm-resilient", False, True),
    ("monolithic-chaos-resilient", True, True),
)


def _chaos_schedule():
    from repro.faults import (FaultSchedule, controller_outage, gateway_crash,
                              install_partial, probe_blackout)

    return FaultSchedule.of(
        controller_outage(3640.0, 3700.0),
        replace(gateway_crash(3620.0, 40.0, region="SIN"), count=2),
        probe_blackout(3610.0, 30.0, region="HGH"),
        install_partial(3660.0, 30.0, 0.5, region="FRA"),
    )


def canonical_bytes(name: str) -> bytes:
    """Run one named configuration and return canonical output bytes."""
    from repro.resilience.config import resilience
    from tests import harness

    by_name = {c[0]: c for c in CONFIGS}
    __, chaos, resilient = by_name[name]
    sim = harness.event_engine(
        elastic=False, faults=_chaos_schedule() if chaos else None,
        resilience=resilience() if resilient else None)
    with sim:
        return harness.canonical_bytes(sim.run(harness.START_S, 150.0))


def digest(name: str) -> str:
    return hashlib.sha256(canonical_bytes(name)).hexdigest()


def _write_fixture() -> None:
    doc = {name: digest(name) for (name, *_rest) in CONFIGS}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(doc)} configurations)")


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        _write_fixture()
    else:
        print(json.dumps({name: digest(name) for (name, *_r) in CONFIGS},
                         indent=2, sort_keys=True))
