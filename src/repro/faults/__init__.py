"""`repro.faults` — deterministic fault injection for the data plane.

XRON's core robustness claim is that the data plane survives failures
the control plane cannot see in time: gateways react locally on
pre-computed premium backups within seconds (§4.3) and keep serving on
stale tables through controller outages (§6.3).  This package turns
those failure modes into data:

* `FaultSpec` / `FaultSchedule` (`repro.faults.spec`) — the declarative
  model: timed, validated, JSON-round-trippable fault descriptions
  covering gateway crashes, probing blackouts, NIB report loss and
  staleness, delayed/partial table installs, provisioning storms, and
  controller outages.
* `FaultInjector` (`repro.faults.runtime`) — the compiled schedule the
  data-plane seams and the engine's extensions query — and
  `FaultExtension`, which drives it on the event engine.

`EventDrivenXRON` accepts a schedule via its ``faults=`` argument; each
injection point emits off-by-default ``fault_*`` telemetry through
`repro.obs`.  Determinism guarantees: an empty schedule is byte-exactly
equivalent to no fault subsystem, and a fixed simulation seed plus a
fixed schedule reproduces identical results run over run.  See
``docs/faults.md``.
"""

from repro.faults.runtime import FaultCounters, FaultInjector, truncate_install
from repro.faults.spec import (FaultKind, FaultSchedule, FaultSpec,
                               control_partition, controller_outage,
                               gateway_crash, install_delay, install_partial,
                               membership_churn, platform_load,
                               probe_blackout, report_drop, report_staleness)

__all__ = [
    "FaultKind", "FaultSpec", "FaultSchedule",
    "FaultInjector", "FaultCounters", "truncate_install",
    "gateway_crash", "probe_blackout", "report_drop", "report_staleness",
    "install_delay", "install_partial", "platform_load",
    "controller_outage", "control_partition", "membership_churn",
]
