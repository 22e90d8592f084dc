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
from typing import Dict, Optional

FIXTURE = Path(__file__).resolve().parents[1] / "_golden" / \
    "partition_disabled.json"

#: (name, control_mode, with_chaos_schedule, with_resilience)
CONFIGS = (
    ("monolithic-calm", "monolithic", False, False),
    ("monolithic-chaos", "monolithic", True, False),
    ("incremental-calm", "incremental", False, False),
    ("incremental-chaos", "incremental", True, False),
    ("monolithic-calm-resilient", "monolithic", False, True),
    ("monolithic-chaos-resilient", "monolithic", True, True),
)


def _build(seed: int = 5):
    from repro.traffic.demand import DemandModel
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.linkstate import LinkType
    from repro.underlay.regions import default_regions
    from repro.underlay.scenarios import quiet_link
    from repro.underlay.topology import build_underlay

    by_code = {r.code: r for r in default_regions()}
    regions = [by_code[c] for c in ("HGH", "SIN", "FRA")]
    config = UnderlayConfig(horizon_s=7200.0)
    config.internet.base_loss_min = 1e-6
    config.internet.base_loss_max = 1e-5
    config.internet.diurnal_loss_amp = 0.0
    for tier in (config.internet, config.premium):
        tier.short_events_per_day = 0.0
        tier.long_events_per_day = 0.0
    u = build_underlay(regions, config, seed=seed)
    for (a, b) in u.pairs:
        for lt in (LinkType.INTERNET, LinkType.PREMIUM):
            quiet_link(u, a, b, lt)
    return u, DemandModel(regions, seed=seed)


def _chaos_schedule():
    from repro.faults import (FaultSchedule, controller_outage, gateway_crash,
                              install_partial, probe_blackout)

    return FaultSchedule.of(
        controller_outage(3640.0, 3700.0),
        gateway_crash(3620.0, 40.0, region="SIN", count=2),
        probe_blackout(3610.0, 30.0, region="HGH"),
        install_partial(3660.0, 30.0, 0.5, region="FRA"),
    )


def _nonzero(counters: Optional[Dict[str, int]]):
    """Keep only counters that actually fired.

    New subsystems may grow *new* zero-valued counter fields; filtering
    zeros keeps the canonical form stable across such additive changes
    (a nonzero value in a new counter is a real behavior change and
    must break the digest).
    """
    if counters is None:
        return None
    return {k: v for k, v in sorted(counters.items()) if v}


def canonical_bytes(name: str) -> bytes:
    """Run one named configuration and return canonical output bytes."""
    from repro.core.config import SimulationConfig
    from repro.core.eventsim import EventDrivenXRON
    from repro.core.variants import xron
    from repro.resilience.config import resilience

    by_name = {c[0]: c for c in CONFIGS}
    __, mode, chaos, resilient = by_name[name]
    u, d = _build()
    sim = EventDrivenXRON(
        u, d,
        variant=replace(xron(), elastic=False),
        sim_config=SimulationConfig(epoch_s=30.0, eval_step_s=10.0,
                                    seed=5, demand_scale=0.05,
                                    control_mode=mode),
        faults=_chaos_schedule() if chaos else None,
        resilience=resilience() if resilient else None)
    with sim:
        result = sim.run(3600.0, 150.0)
    doc = {"events": result.events_processed,
           "probe_bytes": result.probe_bytes,
           "epochs": len(result.control_outputs),
           "gateways": dict(result.gateway_counts),
           "fault_counters": _nonzero(result.fault_counters),
           "resilience_counters": _nonzero(result.resilience_counters),
           "sessions": {
               f"{pair[0]}->{pair[1]}": [list(rec.times),
                                         list(rec.latency_ms),
                                         list(rec.loss_rate),
                                         list(rec.on_backup),
                                         list(rec.hop_counts),
                                         list(rec.blackholed)]
               for pair, rec in sorted(result.sessions.items())}}
    return json.dumps(doc, sort_keys=True).encode()


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
