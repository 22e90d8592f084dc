"""Per-partition degraded-mode sub-controllers.

When a ``control_partition`` fault severs a region set from the global
controller, the baseline behavior is graceful decay: the severed
regions keep serving on their last-installed tables, but every stream
the global controller (re)assigns after the cut is unknown inside the
partition — intra-partition sessions blackhole the moment the service
layer binds them to a stream id the severed tables never learned.

A `RegionalController` is the degraded-mode answer: a small, fully
local control plane spun up *inside* the partition.  It is seeded from
the global controller's last-known NIB state (the link reports for
intra-partition links at the moment of activation), keeps ingesting the
partition's own probe reports, and runs the same two-step control
algorithm over the severed region set only.  Its installs are stamped
with a **regional version epoch** — versions allocated above the last
globally committed version the partition's gateways hold, so regional
tables supersede the stale global rows locally.

Heal-time reconciliation rides the existing two-phase install
versioning (`repro.resilience`):

* On heal, the global installer's proposed-version counter is *fenced*
  to the maximum version the sub-controller ever allocated.  The next
  global install therefore carries a strictly newer version and
  supersedes every regional table everywhere-or-nowhere, through the
  normal validated commit.
* A regional install still in flight when the partition heals (e.g.
  held by an ``install_delay`` fault) carries a version at or below the
  fence, so the region table's version guard refuses it — stale regional
  state can never clobber newer global state.

Stream-id hygiene: the sub-controller's workload allocates stream ids
from a disjoint high band (`REGIONAL_STREAM_BASE` up), so
regional rows can be merged over — and later swept from — a table that
still carries global-band rows for cross-partition streams.

Everything here is deterministic: the sub-controller derives its seed
from the deployment seed and the sorted partition region set, draws
from its own RNG streams, and is activated/healed at control-epoch
boundaries only.  `RegionalExtension` is the engine wiring (activation,
the regional epoch, the heal fence, session ownership) behind the hooks
of `repro.core.eventsim.HOOKS`; ``regional=None`` arms nothing
(byte-identical when absent).  See ``docs/partitions.md``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.controlplane.controller import Controller, ControlOutput
from repro.obs import telemetry as _telemetry
from repro.traffic.matrix import TrafficMatrix

_TEL = _telemetry()

#: First stream id of the regional band, where every sub-controller
#: allocates — far above anything a global workload allocates in a
#: simulated run, so band membership is a single comparison.
REGIONAL_STREAM_BASE = 1_000_000_000


def regional_control() -> bool:
    """The value that arms degraded-mode control: ``EventDrivenXRON(
    regional=regional_control())``, like ``resilience=resilience()``."""
    return True


@dataclass
class PartitionCounters:
    """What the partition-tolerance machinery actually did."""

    partitions_started: int = 0       #: sub-controllers activated
    partitions_healed: int = 0        #: sub-controllers reconciled away
    regional_epochs: int = 0          #: degraded-mode control epochs run
    regional_installs_committed: int = 0  #: validated intra-partition installs
    regional_installs_rejected: int = 0   #: regional updates failing invariants
    regional_rebinds: int = 0         #: sessions moved onto regional streams
    reconcile_fences: int = 0         #: version fences applied on heal
    reconvergence_epochs: int = 0     #: heal -> first global commit, epochs
    heal_flaps: int = 0               #: sessions flapped regional -> global

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class RegionalController:
    """One partition's local control plane (see module docstring)."""

    def __init__(self, regions: Tuple[str, ...], *,
                 make_controller: Callable[..., Controller],
                 base_version: int,
                 seed: int,
                 nib_reports: Optional[List[Dict[str, object]]] = None):
        """`make_controller(codes, seed=)` builds a
        controller configured like the deployment's
        (`EventDrivenXRON.make_controller`).  `base_version` is the
        globally committed install version the partition's gateways
        hold at activation: regional versions are allocated strictly
        above it, so regional installs supersede the stale global rows
        inside the partition.  `nib_reports` seeds the sub-controller's
        NIB with the global controller's last-known view of the
        intra-partition links (export format of
        `NetworkInformationBase.export_reports`)."""
        if len(regions) != len(set(regions)):
            raise ValueError(f"partition repeats a region: {regions}")
        self.regions: Tuple[str, ...] = tuple(sorted(regions))
        self.base_version = int(base_version)
        self._version = int(base_version)
        # A deterministic seed of its own: derived from the deployment
        # seed and the region set (CRC, not `hash()` — string hashing
        # is randomized per process), so two concurrent partitions
        # never share RNG streams with each other or the global plane.
        digest = zlib.crc32(",".join(self.regions).encode())
        self.sub_seed = (seed * 1_000_003 + digest) % (2 ** 31)
        self.controller = make_controller(
            list(self.regions), seed=self.sub_seed)
        # Allocate regional stream ids from the disjoint high band.
        self.controller._workload._next_id = REGIONAL_STREAM_BASE
        if nib_reports:
            member = set(self.regions)
            self.controller.nib.import_reports(
                [doc for doc in nib_reports
                 if doc["src"] in member and doc["dst"] in member])
        self.epochs_run = 0

    # -------------------------------------------------------------- versions
    def next_version(self) -> int:
        """Allocate the next regional install version (monotonic)."""
        self._version += 1
        return self._version

    @property
    def version_high(self) -> int:
        """The highest version this sub-controller ever allocated.

        Heal-time reconciliation fences the global installer to this
        value, so in-flight regional installs (delayed pushes included)
        always lose to the first post-heal global install.
        """
        return self._version

    # --------------------------------------------------------------- control
    def covers(self, region: str) -> bool:
        return region in self.regions

    def restrict_matrix(self, matrix: TrafficMatrix) -> TrafficMatrix:
        """`matrix` cut down to intra-partition demand only."""
        member = set(self.regions)
        return TrafficMatrix(
            list(self.regions),
            {(a, b): v for (a, b), v in matrix.items()
             if a in member and b in member})

    def run_epoch(self, now: float, matrix: TrafficMatrix,
                  gateways: Dict[str, int]) -> ControlOutput:
        """One degraded-mode control epoch over the partition."""
        output = self.controller.run_epoch(now, matrix, gateways)
        self.epochs_run += 1
        return output

    def ingest_reports(self, reports) -> None:
        """Feed intra-partition probe reports into the local NIB."""
        member = set(self.regions)
        self.controller.nib.update_many(
            [r for r in reports if r.src in member and r.dst in member])


class RegionalExtension:
    """Degraded-mode control on the event engine.

    `installer` is the deployment's `TwoPhaseInstaller` (regional
    control needs the resilience layer): it validates regional updates
    against the same routing invariants as global ones, its committed
    version is where regional versions start, and its proposed-version
    counter is what a heal fences."""

    def __init__(self, engine, installer):
        self.engine = engine
        self.installer = installer
        self.stats = PartitionCounters()
        #: Active sub-controllers, keyed by their (sorted) region set.
        self.subs: Dict[Tuple[str, ...], RegionalController] = {}
        #: Epoch seq at the last heal; the next global commit closes the
        #: reconvergence window it opens.
        self._reconverge_epoch0: Optional[int] = None

    def counters(self) -> Dict[str, Dict[str, int]]:
        return {"partition_counters": self.stats.as_dict()}

    # ---------------------------------------------------------------- hooks
    def reports_severed(self, cluster, reports, now: float) -> None:
        """A severed region's reports feed the local NIB of the active
        sub-controller covering it."""
        for sub in self.subs.values():
            if sub.covers(cluster.region):
                sub.ingest_reports(reports)
                break

    def epoch_start(self, sim, unreachable: frozenset) -> None:
        # Heal first: fencing the installer BEFORE this epoch's
        # next_version() guarantees the first post-heal global install
        # supersedes every regional table.
        if self.subs:
            self._reconcile_healed(sim.now)

    def epoch_skipped(self, sim, cause, unreachable: frozenset) -> None:
        # Sub-controllers are separate processes inside their
        # partitions: a global outage does not stop them.
        self.epoch_end(sim, unreachable)

    def epoch_end(self, sim, unreachable: frozenset) -> None:
        """Run degraded-mode control for every active partition — AFTER
        the global epoch, so the regional tables (merged over whatever
        the global plane managed to land outside the partition) are
        what the checkpoint and the next measurement tick observe."""
        if not unreachable:
            return
        for spec in self.engine.faults.active_partitions(sim.now):
            sub = self.subs.get(spec.regions)
            if sub is None:
                # Overlapping windows over intersecting region sets are
                # not supported: the first partition to claim a region
                # keeps it (two sub-controllers must never race installs
                # into the same cluster).
                if any(set(key) & set(spec.regions) for key in self.subs):
                    continue
                sub = self._activate(sim.now, spec)
            self._regional_epoch(sim, sub)

    def committed(self, sim, version: int) -> None:
        """First global commit after a heal: the fenced version just
        superseded the regional tables everywhere it reached."""
        if self._reconverge_epoch0 is None:
            return
        epochs = self.engine.epoch_seq - self._reconverge_epoch0
        self.stats.reconvergence_epochs += epochs
        self._reconverge_epoch0 = None
        if _TEL.enabled:
            _TEL.counter("partition.reconciliations").inc()
            _TEL.event("partition_reconciled", t=sim.now, version=version,
                       epochs=epochs)

    def rebind(self, best: Dict[Tuple[str, str], int],
               now: float) -> Dict[Tuple[str, str], Optional[int]]:
        """Session ownership.  While a partition is active, the pairs
        living entirely inside it are OWNED by its sub-controller: the
        global plane cannot program their gateways anyway, so binding
        them to global stream ids the severed tables never learn would
        only manufacture blackholes — they stay where they are.  They
        rejoin global binding the epoch after heal, counted as a heal
        flap when that moves them off a regional stream id."""
        severed = (self.engine.faults.partition_regions(now)
                   if self.subs else frozenset())
        bound = dict(best)
        for pair, old in self.engine.session_stream.items():
            new = best.get(pair)
            if pair[0] in severed and pair[1] in severed:
                bound[pair] = old
            elif (old is not None and old >= REGIONAL_STREAM_BASE
                  and (new is None or new < REGIONAL_STREAM_BASE)):
                self.stats.heal_flaps += 1
        return bound

    # ------------------------------------------------------------- lifecycle
    def _activate(self, now: float, spec) -> RegionalController:
        """Spin up a sub-controller inside a freshly severed partition.

        It is seeded from the global controller's last-known NIB view of
        the intra-partition links and allocates install versions above
        the last globally committed version, so its tables supersede the
        stale global rows locally — and nothing else."""
        engine = self.engine
        sub = RegionalController(
            spec.regions, make_controller=engine.make_controller,
            base_version=self.installer.committed_version,
            seed=engine.sim_config.seed,
            nib_reports=engine.controller.nib.export_reports())
        self.subs[sub.regions] = sub
        self.stats.partitions_started += 1
        if _TEL.enabled:
            _TEL.counter("partition.activations").inc()
            _TEL.event("partition_onset", t=now, regions=list(sub.regions),
                       base_version=sub.base_version,
                       fault_id=engine.faults.fault_id(spec))
        return sub

    def _regional_epoch(self, sim, sub: RegionalController) -> None:
        """One degraded-mode control epoch inside a partition.

        The sub-controller computes paths for intra-partition demand
        only, the update is validated against the same routing
        invariants as a global install (over the partition's clusters),
        and regional rows are merged OVER the global-band rows so
        cross-partition streams keep their last-good tables."""
        engine, stats, now = self.engine, self.stats, sim.now
        output = sub.run_epoch(
            now, sub.restrict_matrix(engine.demand_matrix(now)),
            engine.ready_counts(sub.regions, now))
        stats.regional_epochs += 1
        if _TEL.enabled:
            _TEL.counter("partition.regional_epochs").inc()
            _TEL.event("partition_regional_epoch", t=now,
                       regions=list(sub.regions), epoch=sub.epochs_run)
        plans_by_region = output.plans_by_region
        tables = output.path_result.forwarding_tables
        violations = self.installer.validate(
            tables, plans_by_region,
            {code: engine.clusters[code].size for code in sub.regions},
            output.stream_specs())
        if violations:
            # No retries: a degraded-mode controller proposes afresh
            # next epoch; the partition keeps riding its current tables.
            stats.regional_installs_rejected += 1
            if _TEL.enabled:
                _TEL.counter("partition.installs_rejected").inc()
                _TEL.event("partition_regional_rejected", t=now,
                           regions=list(sub.regions),
                           violation_count=len(violations),
                           violations=[str(v) for v in violations[:5]])
            return
        version = sub.next_version()
        for code in sub.regions:
            cluster = engine.clusters[code]
            merged = {sid: entry
                      for sid, entry in cluster.current_entries().items()
                      if sid < REGIONAL_STREAM_BASE}
            merged.update(tables[code])
            merged_plans = {sid: plan
                            for sid, plan in cluster.current_plans().items()
                            if sid < REGIONAL_STREAM_BASE}
            merged_plans.update(plans_by_region[code])
            # Intra-partition pushes still honor the install-delay hook
            # — the heal race in miniature: a delayed regional install
            # landing after the heal's fenced global commit loses at the
            # table's version guard.
            engine.land(sim, code, merged, merged_plans, version,
                        engine.install_delay(code, now))
        stats.regional_installs_committed += 1
        if _TEL.enabled:
            _TEL.counter("partition.installs_committed").inc()
            _TEL.event("partition_regional_commit", t=now,
                       regions=list(sub.regions), version=version,
                       rows=sum(len(tables[c]) for c in sub.regions))
        # Bind intra-partition tracked sessions to regional stream ids.
        for pair, sid in sorted(engine.best_streams(output).items()):
            stats.regional_rebinds += engine.bind_session(
                pair, sid, now, regional=True)

    def _reconcile_healed(self, now: float) -> None:
        """Retire sub-controllers whose partition window has closed.

        The fence: the global installer's proposed-version counter jumps
        to the highest version any healed sub-controller allocated, so
        the next global two-phase install carries a strictly newer
        version and supersedes every regional table everywhere-or-
        nowhere — while any still-in-flight regional install (delayed
        push) is refused by its region table's version guard."""
        active = {spec.regions
                  for spec in self.engine.faults.active_partitions(now)}
        for key in sorted(self.subs):
            if key in active:
                continue
            sub = self.subs.pop(key)
            self.stats.partitions_healed += 1
            fence = max(self.installer.proposed_version, sub.version_high)
            if fence > self.installer.proposed_version:
                self.installer.proposed_version = fence
                self.stats.reconcile_fences += 1
            self._reconverge_epoch0 = self.engine.epoch_seq
            if _TEL.enabled:
                _TEL.counter("partition.heals").inc()
                _TEL.event("partition_heal", t=now, regions=list(key),
                           fenced_version=fence,
                           regional_epochs=sub.epochs_run)


__all__ = ["REGIONAL_STREAM_BASE", "PartitionCounters", "RegionalController",
           "RegionalExtension", "regional_control"]
