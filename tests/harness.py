"""One equivalence harness for the event engine.

The deployment the event-engine suites share (a short-epoch engine on
`repro.experiments.base.quiet_testbed`) and THE canonical serialization
of what a run produced.  Every byte-identity claim in the suite —
extensions absent vs armed-but-idle, telemetry on vs off,
`XRONService` vs `run`, the digests recorded in
``tests/_golden/partition_disabled.json`` — compares `canonical_bytes`.
"""

import json
from dataclasses import replace
from typing import Dict, Optional

from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON, EventSimResult
from repro.core.variants import xron
from repro.experiments.base import quiet_testbed

#: Where the suites start their runs (past the underlay warm-up).
START_S = 3600.0


def event_engine(seed: int = 5, *, elastic: bool = True,
                 **kwargs) -> EventDrivenXRON:
    """A 30 s-epoch deployment on the quiet testbed.  ``elastic=False``
    pins the fleets, so an injected gateway crash has victims to take
    (capacity control would shrink these tiny-demand clusters to one
    gateway first, and a crash always spares one)."""
    underlay, demand = quiet_testbed(seed)
    return EventDrivenXRON(
        underlay, demand, variant=replace(xron(), elastic=elastic),
        sim_config=SimulationConfig(epoch_s=30.0, eval_step_s=10.0,
                                    seed=seed, demand_scale=0.05),
        **kwargs)


def extension(engine: EventDrivenXRON, cls):
    """The one armed extension of type `cls`."""
    (found,) = (ext for ext in engine.extensions if isinstance(ext, cls))
    return found


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


def canonical_bytes(result: EventSimResult) -> bytes:
    """Everything observable about one run, as canonical JSON bytes."""
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
    # Keys of the later subsystems appear only when they are armed, so
    # the digests recorded before they existed do not move.
    for name in ("membership_counters", "partition_counters"):
        if getattr(result, name) is not None:
            doc[name] = _nonzero(getattr(result, name))
    return json.dumps(doc, sort_keys=True).encode()


def epoch_bytes(result) -> bytes:
    """The same for an `EpochSimulator` run (a `SimulationResult`)."""
    doc = {"latency": result.latency_ms.round(9).tolist(),
           "loss": result.loss_rate.round(9).tolist(),
           "on_backup": result.on_backup.astype(int).tolist(),
           "containers": result.containers.tolist(),
           "demand": result.demand_mbps.round(9).tolist()}
    return json.dumps(doc, sort_keys=True).encode()
