"""Extra experiment: fast reaction under injected faults (§4.3 + §6.3).

`reaction_latency` established the baseline: a clean deployment handles
an injected link degradation within seconds.  This experiment re-runs
that measurement under each class of the `repro.faults` taxonomy and
reports, per fault class, how many degradations were still handled and
the detection→failover→failback timing — the §6.3 claim that the data
plane keeps its seconds-scale reaction while the control plane is
crashing, blind, stale, or slow:

* during a **controller outage** the local loop is the only loop, so
  handling must match the baseline;
* after a **gateway crash** the surviving (and restarted) gateways
  inherit tables *and* reaction plans and keep reacting;
* with NIB **report drops** the controller is blind but gateways are
  not: local reaction is unaffected (the paper's separation argument);
* a **probing blackout** on the degraded link removes the detection
  signal itself — events during the blackout go unhandled, which is the
  measured cost of losing monitoring rather than control;
* **delayed/partial installs** and a **provisioning storm** degrade the
  control plane's push path; reaction rides pre-installed plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.variants import xron
from repro.experiments.base import (TESTBED_START_S, format_table,
                                    quiet_testbed, reaction_train)
from repro.faults import (FaultSchedule, gateway_crash, install_delay,
                          install_partial, platform_load, probe_blackout,
                          report_drop)
from repro.faults import controller_outage as outage_spec


@dataclass
class ChaosScenario:
    """Reaction timing for one fault class."""

    name: str
    injected: int
    handled: int
    #: Onset-to-backup delay per handled event, seconds.
    failover_s: np.ndarray
    #: Recovery-to-normal delay per handled event, seconds.
    failback_s: np.ndarray
    #: What the injector actually did (None for the fault-free baseline).
    fault_counters: Optional[Dict[str, int]]

    @property
    def mean_failover_s(self) -> float:
        return float(self.failover_s.mean()) if self.failover_s.size else 0.0

    @property
    def mean_failback_s(self) -> float:
        return float(self.failback_s.mean()) if self.failback_s.size else 0.0

    @property
    def fault_injections(self) -> int:
        return (sum(self.fault_counters.values())
                if self.fault_counters else 0)


@dataclass
class ChaosReaction:
    """All fault-class scenarios side by side."""

    scenarios: List[ChaosScenario]

    def lines(self) -> List[str]:
        rows = []
        for s in self.scenarios:
            rows.append([
                s.name, s.injected, s.handled,
                round(s.mean_failover_s, 2), round(s.mean_failback_s, 2),
                s.fault_injections,
            ])
        lines = format_table(
            ["fault class", "events", "handled", "mean failover (s)",
             "mean failback (s)", "fault injections"],
            rows,
            title="Chaos reaction — §6.3's seconds-scale local loop "
                  "under injected faults")
        lines.append("")
        lines.append("the local loop must hold its shape under every "
                     "fault the controller cannot see in time; only the "
                     "probing blackout removes the detection signal "
                     "itself")
        return lines


def _schedules(n_events: int, event_spacing_s: float,
               event_duration_s: float,
               src: str) -> List[Tuple[str, FaultSchedule]]:
    """One schedule per fault class, aligned with the degradation train."""
    start = TESTBED_START_S
    first = start + 30.0
    horizon = 30.0 + n_events * event_spacing_s + 60.0
    return [
        ("baseline", FaultSchedule.empty()),
        ("controller-outage", FaultSchedule.of(
            outage_spec(start + 1.0, start + horizon))),
        ("gateway-crash", FaultSchedule.of(
            gateway_crash(first - 10.0, horizon - 60.0, region=src,
                          count=1))),
        ("probe-blackout", FaultSchedule.of(
            probe_blackout(first - 10.0,
                           event_spacing_s * max(1, n_events // 2),
                           region=src))),
        ("report-drop", FaultSchedule.of(
            # Starts one second AFTER the first epoch so tables exist;
            # from then on the controller is blind while the data plane
            # keeps reacting locally.
            report_drop(start + 1.0, horizon, region=src))),
        ("install-chaos", FaultSchedule.of(
            # Like report-drop, spare the bootstrap install: a partial
            # FIRST install has no stale rows to ride, which would model
            # a dead region rather than a degraded push path.
            install_delay(start + 1.0, horizon, delay_s=20.0, region=src),
            install_partial(start + 1.0, horizon, keep_fraction=0.5))),
        ("provision-storm", FaultSchedule.of(
            platform_load(start, horizon, load=8.0))),
    ]


def run(n_events: int = 4, seed: int = 17, event_spacing_s: float = 60.0,
        event_duration_s: float = 25.0, measure_interval_s: float = 0.5
        ) -> ChaosReaction:
    """Measure reaction timing under each fault class.

    Every scenario replays the *same* degradation train (same seed, same
    underlay build) under a different `FaultSchedule`, so rows differ
    only by the injected fault.  Elastic capacity control is frozen for
    every row except ``provision-storm`` — with the tiny tracked demand
    it would scale clusters to a single gateway, leaving the crash
    injector nothing to kill; the storm row keeps it on (that is the
    fault being measured) and starts under-provisioned so the epoch loop
    must actually request containers through the inflated platform.
    """
    __, demand = quiet_testbed(seed)
    pair = max(demand.pairs, key=lambda p: demand.pair_scale(*p))
    scenarios = []
    for name, schedule in _schedules(n_events, event_spacing_s,
                                     event_duration_s, pair[0]):
        deployment = ({"variant": xron(), "demand_scale": 0.6,
                       "initial_gateways": 1}
                      if name == "provision-storm" else {})
        result, failovers, failbacks = reaction_train(
            seed, n_events, event_spacing_s, event_duration_s,
            measure_interval_s, epoch_s=60.0, faults=schedule, **deployment)
        scenarios.append(ChaosScenario(name, n_events, len(failovers),
                                       failovers, failbacks,
                                       result.fault_counters))
    return ChaosReaction(scenarios)
