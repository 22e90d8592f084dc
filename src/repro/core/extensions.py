"""From `EventDrivenXRON`'s subsystem kwargs to its extension list.

The one module of `repro.core` that knows which subsystems exist: the
engine hands over what its constructor was given and gets back the
compiled fault schedule plus the ordered list its hooks are resolved
from (`repro.core.eventsim.HOOKS`).  A subsystem that is not armed
contributes nothing, so a run without it never executes a line of it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.controlplane.membership import MembershipExtension
from repro.controlplane.regional import RegionalExtension
from repro.faults.runtime import FaultExtension, FaultInjector
from repro.faults.spec import FaultSchedule
from repro.resilience.install import ResilienceExtension


def arm(engine, *, faults, resilience, membership, regional,
        slo) -> Tuple[FaultInjector, List[object]]:
    """Build `engine`'s injector and extensions (its clusters, pools and
    controller exist already; each extension wires itself to them).

    List order is hook order, and reproduces the interleaving the
    subsystems were written against: on a gated epoch the fault
    extension accounts the outage before the resilience layer marks a
    restart owed before regional control ticks; a restarted controller
    gets its fault filter back before membership forgets its soft state.
    """
    schedule = faults if faults is not None else FaultSchedule.empty()
    # Always compiled — an empty schedule scans empty buckets and draws
    # nothing — so extensions query `engine.faults` without asking
    # whether faults are armed.
    injector = FaultInjector(schedule, seed=engine.rng.seed_for("faults"))
    extensions: List[object] = []
    if schedule:
        extensions.append(FaultExtension(engine, injector))
    layer = None
    if resilience is not None:
        layer = ResilienceExtension(engine, resilience)
        extensions.append(layer)
    if membership:
        extensions.append(MembershipExtension(engine))
    if regional:
        if layer is None:
            raise ValueError(
                "regional sub-controllers need the resilience layer: "
                "heal-time reconciliation rides the two-phase install "
                "versioning (pass resilience=resilience())")
        extensions.append(RegionalExtension(engine, layer.installer))
    if slo is not None:
        extensions.append(slo)
    return injector, extensions
