"""Extra experiment: partition-tolerant control, off vs on.

`recovery` showed the safe-update layer surviving bad *installs* and
controller *outages*.  This experiment severs whole region sets from
the global controller (`control_partition`) and measures what the
partition-tolerance pair — soft-state membership
(`repro.controlplane.membership`) and regional degraded-mode
sub-controllers (`repro.controlplane.regional`) — adds on top:

* **partition-blackhole** — a multi-epoch partition cuts (HGH, SIN)
  off from the controller.  Without degraded mode the global plane
  keeps rebinding tracked sessions to fresh stream ids the severed
  tables never learn, so every intra-partition session blackholes for
  the whole window; with it a sub-controller keeps intra-partition
  path control alive from last-known NIB state (blackholed
  stream-seconds -> ~0) and membership demotes the severed regions so
  cross-partition traffic is routed *around* them.  On heal, the
  global installer is version-fenced and the first global commit
  supersedes every regional table — the metrics are reconvergence
  epochs and session heal-flaps, with **zero** invariant-violating
  regional commits.
* **membership-churn** — a churn window eats a region's liveness
  refreshes.  Without membership the fault is inert; with it the
  region's soft state expires and it is demoted out of path control
  until the window closes (expiries/demotions counted).

Every scenario replays the *same* fault schedule (same seed, same
underlay build) under both modes, so each pair of rows differs only by
the subsystems under test.  See ``docs/partitions.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.eventsim import EventSimResult
from repro.experiments.base import (SHORT_EPOCH_S, SHORT_RUN_SIB_PARAMS,
                                    TESTBED_START_S, format_table,
                                    testbed_engine)
from repro.faults import FaultSchedule, control_partition, membership_churn
from repro.resilience import resilience

#: The severed set: two of the testbed's three regions.
_SEVERED: Tuple[str, ...] = ("HGH", "SIN")
#: Tracked sessions: both intra-partition directions plus two pairs
#: crossing the partition edge.
_TRACKED = [("HGH", "SIN"), ("SIN", "HGH"), ("HGH", "FRA"), ("FRA", "SIN")]


@dataclass
class PartitionRow:
    """One (scenario, mode) run of the partition testbed."""

    scenario: str
    mode: str
    #: Blackholed-stream-seconds, split by whether the tracked pair
    #: lives entirely inside the severed set.
    intra_blackholed_s: float
    cross_blackholed_s: float
    #: Heal -> first fenced global commit, in epochs (0 = no heal seen).
    reconverge_epochs: int
    #: Sessions that flapped regional -> global at heal.
    heal_flaps: int
    partition_counters: Optional[Dict[str, int]]
    membership_counters: Optional[Dict[str, int]]
    fault_counters: Optional[Dict[str, int]]

    def pcounter(self, name: str) -> int:
        if self.partition_counters is None:
            return 0
        return self.partition_counters[name]

    def mcounter(self, name: str) -> int:
        if self.membership_counters is None:
            return 0
        return self.membership_counters[name]


@dataclass
class PartitionReport:
    """All scenario/mode rows side by side."""

    rows: List[PartitionRow]

    def lines(self) -> List[str]:
        table = []
        for r in self.rows:
            table.append([
                r.scenario, r.mode,
                round(r.intra_blackholed_s, 1),
                round(r.cross_blackholed_s, 1),
                r.reconverge_epochs, r.heal_flaps,
                r.pcounter("regional_installs_committed"),
                r.pcounter("regional_installs_rejected"),
                r.mcounter("expiries"),
                r.mcounter("regions_demoted"),
            ])
        lines = format_table(
            ["scenario", "mode", "intra bh (s)", "cross bh (s)",
             "reconverge", "flaps", "committed", "rejected",
             "expiries", "demoted"],
            table,
            title="Partition tolerance — degraded-mode control off vs on")
        lines.append("")
        lines.append("a regional sub-controller keeps intra-partition "
                     "sessions alive (blackholed seconds -> ~0) while "
                     "membership demotes the severed regions; on heal the "
                     "version fence reconverges the fleet in about one "
                     "epoch with zero invariant-violating commits")
        return lines


def _run(seed: int, duration_s: float, schedule: FaultSchedule,
         member: bool, regional: bool):
    """One deployment run on the shared testbed (elastic frozen).

    Both arms carry the resilience layer: the comparison isolates the
    partition-tolerance pair, not two-phase installs (and regional
    control needs the installer's versioning anyway)."""
    system = testbed_engine(
        seed, SHORT_EPOCH_S, tracked_pairs=list(_TRACKED),
        faults=schedule, resilience=resilience(),
        sib_params=SHORT_RUN_SIB_PARAMS,
        membership=member, regional=regional)
    with system:
        return system.run(TESTBED_START_S, duration_s)


def _blackholed(result: EventSimResult, intra: bool) -> float:
    severed = set(_SEVERED)
    total = 0.0
    for pair, rec in result.sessions.items():
        inside = pair[0] in severed and pair[1] in severed
        if inside == intra:
            total += rec.blackholed_seconds(1.0)
    return total


def _row(scenario: str, mode: str, result: EventSimResult) -> PartitionRow:
    pc = result.partition_counters
    return PartitionRow(
        scenario, mode,
        intra_blackholed_s=_blackholed(result, intra=True),
        cross_blackholed_s=_blackholed(result, intra=False),
        reconverge_epochs=(pc["reconvergence_epochs"]
                           if pc is not None else 0),
        heal_flaps=pc["heal_flaps"] if pc is not None else 0,
        partition_counters=pc,
        membership_counters=result.membership_counters,
        fault_counters=result.fault_counters)


# ------------------------------------------------------------- scenarios
def _partition_blackhole(seed: int, partition_epochs: int,
                         post_epochs: int) -> List[PartitionRow]:
    """A multi-epoch control partition: degraded mode off vs on.

    The cut begins after five epochs — enough (with the short-run SIB
    overrides) for the global plane to be past bootstrap, so the
    sub-controller activates from a warm last-known NIB."""
    cut_start = TESTBED_START_S + 5 * SHORT_EPOCH_S + 1.0
    cut_s = partition_epochs * SHORT_EPOCH_S
    duration = ((cut_start - TESTBED_START_S) + cut_s
                + (post_epochs + 1) * SHORT_EPOCH_S)
    schedule = FaultSchedule.of(
        control_partition(cut_start, cut_s, _SEVERED))
    rows = []
    for mode, member, regional in (
            ("off", False, False), ("on", True, True)):
        result = _run(seed, duration, schedule, member, regional)
        rows.append(_row("partition-blackhole", mode, result))
    return rows


def _churn(seed: int, post_epochs: int) -> List[PartitionRow]:
    """A membership-churn window: soft-state liveness off vs on."""
    churn_start = TESTBED_START_S + 5 * SHORT_EPOCH_S + 1.0
    churn_s = 3 * SHORT_EPOCH_S
    duration = ((churn_start - TESTBED_START_S) + churn_s
                + (post_epochs + 1) * SHORT_EPOCH_S)
    schedule = FaultSchedule.of(
        membership_churn(churn_start, churn_s, region="HGH"))
    rows = []
    for mode, member in (("off", False), ("on", True)):
        result = _run(seed, duration, schedule, member, False)
        rows.append(_row("membership-churn", mode, result))
    return rows


def run(seed: int = 23, partition_epochs: int = 8,
        post_epochs: int = 6) -> PartitionReport:
    """Sever (HGH, SIN) from the controller with degraded mode off/on,
    then starve one region's refreshes with membership off/on."""
    rows: List[PartitionRow] = []
    rows.extend(_partition_blackhole(seed, partition_epochs, post_epochs))
    rows.extend(_churn(seed, post_epochs))
    return PartitionReport(rows)
