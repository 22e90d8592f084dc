"""Safe-update & recovery layer.

XRON's control plane must update forwarding state across regions without
ever blackholing or looping live conference traffic, and must keep
forwarding sanely when the controller goes dark.  This package holds the
mechanisms `EventDrivenXRON(resilience=ResilienceConfig(...))` arms:

* `repro.resilience.invariants` — the routing invariants (loop freedom,
  delivery, no blackhole, plan liveness) a proposed install must satisfy;
* `repro.resilience.install` — the versioned two-phase install
  (validation, monotonic versions, bounded-backoff retry policy) and
  `ResilienceExtension`, which runs it — and checkpoints and restarts —
  on the event engine;
* `repro.resilience.checkpoint` — JSON-round-trippable controller
  checkpoints enabling warm restarts after an outage;
* `repro.resilience.config` — the knobs, including degraded-mode
  forwarding thresholds and failback hold-down.

Without a config (the default) the layer is not there: every run stays
byte-identical to a build without this package.
"""

from repro.resilience.checkpoint import Checkpoint
from repro.resilience.config import ResilienceConfig, resilience
from repro.resilience.install import ResilienceCounters, TwoPhaseInstaller
from repro.resilience.invariants import (Violation, check_delivery,
                                         check_loop_freedom,
                                         check_no_blackhole,
                                         check_plan_liveness,
                                         validate_install)

__all__ = [
    "Checkpoint", "ResilienceConfig", "resilience",
    "ResilienceCounters", "TwoPhaseInstaller",
    "Violation", "check_delivery", "check_loop_freedom",
    "check_no_blackhole", "check_plan_liveness", "validate_install",
]
