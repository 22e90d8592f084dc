"""Extra experiment: the safe-update & recovery layer under chaos.

`chaos_reaction` showed the data plane's *local* loop keeps reacting
while the control plane is degraded.  This experiment measures what the
`repro.resilience` layer adds on top, by replaying the same chaos
recipes with the layer off and on:

* **install-chaos** — partial/delayed table pushes.  Without the layer,
  truncated installs land as-is and streams ride half-updated tables
  into blackholes; with it, every update is validated against the
  routing invariants while gateways still hold their last-good tables,
  rejected updates are retried with bounded backoff, and the metric is
  blackholed-stream-seconds.
* **controller-outage** — a multi-epoch outage kills the controller
  process.  A cold restart relearns the SIB's demand history from
  nothing and predicts on the persistence fallback for ``min_history``
  epochs; a warm restart loads the last checkpoint (a JSON artifact)
  and predicts from the restored Fourier fit immediately.  The metric
  is reconvergence epochs — post-outage epochs still on the fallback.
* **flap-storm** — a train of short link degradations spaced inside the
  failback hold-down.  Without hysteresis every burst is a fresh
  failover; with it the stream stays on the backup through the train.
  The metric is the failover flap count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.core.eventsim import EventSimResult
from repro.experiments.base import (SHORT_EPOCH_S, SHORT_RUN_SIB_PARAMS,
                                    TESTBED_START_S, format_table,
                                    quiet_testbed, testbed_engine)
from repro.faults import (FaultSchedule, controller_outage, install_delay,
                          install_partial)
from repro.resilience import ResilienceConfig, resilience
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.events import DegradationEvent
from repro.underlay.linkstate import LinkType
from repro.underlay.scenarios import inject_events
from repro.traffic.demand import DemandModel


@dataclass
class RecoveryRow:
    """One (scenario, mode) run of the recovery testbed."""

    scenario: str
    mode: str
    #: Sum of blackholed-stream-seconds over the tracked sessions.
    blackholed_s: float
    #: Sum of normal->backup transitions over the tracked sessions.
    flaps: int
    #: Post-outage epochs still predicting on the persistence fallback
    #: (None for scenarios without a controller outage).
    reconverge_epochs: Optional[int]
    resilience_counters: Optional[Dict[str, int]]
    fault_counters: Optional[Dict[str, int]]

    def counter(self, name: str) -> int:
        if self.resilience_counters is None:
            return 0
        return self.resilience_counters[name]


@dataclass
class RecoveryReport:
    """All scenario/mode rows side by side."""

    rows: List[RecoveryRow]

    def lines(self) -> List[str]:
        table = []
        for r in self.rows:
            table.append([
                r.scenario, r.mode, round(r.blackholed_s, 1), r.flaps,
                "-" if r.reconverge_epochs is None else r.reconverge_epochs,
                r.counter("installs_committed"),
                r.counter("installs_rejected"),
                r.counter("restores_warm") + r.counter("restores_cold"),
            ])
        lines = format_table(
            ["scenario", "mode", "blackholed (s)", "flaps",
             "reconverge (epochs)", "committed", "rejected", "restores"],
            table,
            title="Recovery — the safe-update layer under replayed chaos")
        lines.append("")
        lines.append("validated two-phase installs keep invalid tables "
                     "out of the data plane (blackholed seconds -> 0), "
                     "a warm restart skips the cold relearning epochs, "
                     "and failback hold-down absorbs flap storms")
        return lines


def _run(seed: int, duration_s: float, schedule: FaultSchedule,
         res: Optional[ResilienceConfig], testbed=None,
         measure_interval_s: float = 1.0) -> EventSimResult:
    """One deployment run on the shared testbed (elastic frozen)."""
    system = testbed_engine(
        seed, SHORT_EPOCH_S, testbed=testbed,
        measure_interval_s=measure_interval_s, faults=schedule,
        resilience=res, sib_params=SHORT_RUN_SIB_PARAMS)
    return system.run(TESTBED_START_S, duration_s)


def _blackholed(result: EventSimResult, measure_interval_s: float) -> float:
    return sum(rec.blackholed_seconds(measure_interval_s)
               for rec in result.sessions.values())


def _flaps(result: EventSimResult) -> int:
    return sum(rec.flap_count() for rec in result.sessions.values())


def _is_fallback(predicted: TrafficMatrix, observed: TrafficMatrix) -> bool:
    """Whether a prediction is the persistence fallback (last * 1.1).

    An unfitted `RollingPredictor` predicts exactly ``last_actual * 1.1``
    for every pair; a fitted one returns ``max(model, last)``, which
    cannot reproduce that scaling across all non-zero pairs.
    """
    obs = dict(observed.items())
    checked = 0
    for pair, pred in predicted.items():
        demand = obs.get(pair, 0.0)
        if demand <= 0.0:
            continue
        checked += 1
        if abs(pred - demand * 1.1) > 1e-6 * demand:
            return False
    return checked > 0


def _reconverge_epochs(result: EventSimResult, demand: DemandModel,
                       demand_scale: float, after_t: float) -> int:
    """Post-outage epochs still predicting on the persistence fallback."""
    count = 0
    for output in result.control_outputs:
        if output.epoch_start < after_t:
            continue
        observed = TrafficMatrix.from_model(demand, output.epoch_start,
                                            demand_scale)
        if not _is_fallback(output.predicted_matrix, observed):
            break
        count += 1
    return count


# ------------------------------------------------------------- scenarios
def _install_chaos(seed: int) -> List[RecoveryRow]:
    """Partial + delayed installs: resilience off vs on."""
    schedule = FaultSchedule.of(
        # Spare the bootstrap install (start + 1.0): the fault degrades
        # the push path of a deployment that has booted, not its boot.
        install_partial(TESTBED_START_S + 60.0, 40.0, 0.4),
        install_delay(TESTBED_START_S + 450.0, 20.0, 5.0),
    )
    rows = []
    for mode, res in (("off", None), ("on", resilience())):
        result = _run(seed, 600.0, schedule, res)
        rows.append(RecoveryRow(
            "install-chaos", mode,
            blackholed_s=_blackholed(result, 1.0),
            flaps=_flaps(result), reconverge_epochs=None,
            resilience_counters=result.resilience_counters,
            fault_counters=result.fault_counters))
    return rows


def _outage(seed: int, post_epochs: int) -> List[RecoveryRow]:
    """Multi-epoch controller outage: cold restart vs warm restore.

    The outage begins after seven epochs — enough history (with the
    short-run SIB overrides) for the Fourier fit to exist, so the last
    pre-outage checkpoint carries a fitted model.
    """
    outage_start = TESTBED_START_S + 7 * SHORT_EPOCH_S + 1.0
    outage_end = outage_start + 4 * SHORT_EPOCH_S
    duration = ((outage_end - TESTBED_START_S)
                + (post_epochs + 1) * SHORT_EPOCH_S)
    schedule = FaultSchedule.of(controller_outage(outage_start, outage_end))
    rows = []
    for mode, res in (
            ("cold", replace(resilience(), checkpoint_enabled=False)),
            ("warm", resilience())):
        underlay, demand = quiet_testbed(seed)
        result = _run(seed, duration, schedule, res,
                      testbed=(underlay, demand))
        rows.append(RecoveryRow(
            "controller-outage", mode,
            blackholed_s=_blackholed(result, 1.0),
            flaps=_flaps(result),
            reconverge_epochs=_reconverge_epochs(
                result, demand, 0.05, outage_end),
            resilience_counters=result.resilience_counters,
            fault_counters=result.fault_counters))
    return rows


def _flap_storm(seed: int, flap_events: int) -> List[RecoveryRow]:
    """Short degradation bursts inside the hold-down window.

    Bursts are spaced closer than `FAILBACK_HOLDDOWN_S`: without the
    hold-down every burst is a fresh failover flap; with it the tracked
    stream rides the backup through the train.
    """
    spacing_s, burst_s = 25.0, 12.0
    underlay, demand = quiet_testbed(seed)
    pair = max(demand.pairs, key=lambda p: demand.pair_scale(*p))
    onsets = [TESTBED_START_S + 30.0 + k * spacing_s
              for k in range(flap_events)]
    inject_events(underlay, pair[0], pair[1], LinkType.INTERNET,
                  [DegradationEvent(t, burst_s, 4000.0, 0.3)
                   for t in onsets])
    duration = 30.0 + flap_events * spacing_s + 60.0
    rows = []
    for mode, res in (
            ("no-hysteresis", replace(resilience(),
                                      hysteresis_enabled=False)),
            ("hysteresis", resilience())):
        # Same underlay object is safe: link processes are deterministic
        # functions of time, and runs do not mutate the underlay.
        result = _run(seed, duration, FaultSchedule.empty(), res,
                      testbed=(underlay, demand), measure_interval_s=0.5)
        rows.append(RecoveryRow(
            "flap-storm", mode,
            blackholed_s=_blackholed(result, 0.5),
            flaps=_flaps(result), reconverge_epochs=None,
            resilience_counters=result.resilience_counters,
            fault_counters=result.fault_counters))
    return rows


#: The seed of the testbed and the fault schedules.
SEED = 23


def run(flap_events: int = 4, post_epochs: int = 6) -> RecoveryReport:
    """Replay the chaos recipes with the resilience layer off and on.

    Every scenario replays the *same* fault schedule (same seed, same
    underlay build) under both modes, so each pair of rows differs only
    by the layer under test.
    """
    rows: List[RecoveryRow] = []
    rows.extend(_install_chaos(SEED))
    rows.extend(_outage(SEED, post_epochs))
    rows.extend(_flap_storm(SEED, flap_events))
    return RecoveryReport(rows)
