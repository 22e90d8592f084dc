"""The fault injector and the extension that drives it on the engine.

`FaultInjector` is a compiled `FaultSchedule` answering point queries —
what the data-plane seams and the event engine's extensions talk to.
It keeps the schedule's specs bucketed by kind so per-call matching is
a short linear scan (schedules hold dozens of specs at most), decides
probabilistic report drops and churn suppressions by a hash of (fault
id, link or region, instant) under its own seed — so a decision never
depends on which other queries came first, and never perturbs another
subsystem's randomness — and counts what it injected so experiments
can report fault pressure next to reaction timings.  It is passive —
it never schedules anything — and an empty one answers every query
"nothing", so `EventDrivenXRON` always carries one as ``engine.faults``.

`FaultExtension` is the half that needs a clock and a deployment: it
queues the gateway-crash windows, closes the epoch gate during a
controller outage, severs partitioned regions from the controller
(reports in, installs out) and transforms install pushes (partial,
delayed) — each through one hook of `repro.core.eventsim.HOOKS`.  The
engine arms it only for a non-empty schedule, which is also the only
time the three data-plane seams (`MonitoringBlock.faults`,
`NetworkInformationBase.fault_filter`, `ContainerPool.platform_load_fn`)
are wired: without a schedule the probe and report path is the plain
one, call for call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.controlplane.nib import LinkReport, ReportBatch
from repro.dataplane.probing import burst_draws
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.obs import telemetry as _telemetry
from repro.sim.rng import RngStreams
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_ORDER

_TEL = _telemetry()

Entries = Dict[int, Tuple[str, LinkType]]
Plans = Dict[int, Tuple[str, ...]]


@dataclass
class FaultCounters:
    """What the injector actually did (not what was merely scheduled)."""

    gateways_crashed: int = 0
    gateways_restarted: int = 0
    probes_blacked_out: int = 0
    reports_dropped: int = 0
    reports_staled: int = 0
    installs_delayed: int = 0
    installs_truncated: int = 0
    load_spikes_applied: int = 0
    epochs_skipped: int = 0
    #: control_partition: NIB reports that never reached the global
    #: controller because their source region was severed.
    reports_severed: int = 0
    #: control_partition: global installs that stopped at the partition
    #: edge (one per severed region per install round).
    installs_severed: int = 0
    #: membership_churn: soft-state liveness refreshes suppressed.
    refreshes_churned: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def total(self) -> int:
        return sum(self.__dict__.values())

    def by_kind(self) -> Dict[str, int]:
        """Cumulative effect counts re-keyed by `FaultKind` value.

        The health JSON a soak run emits reports fault pressure per
        taxonomy kind; this folds the effect-named counters onto the
        kind that caused them (crash + restart both belong to
        ``gateway_crash``).
        """
        return {
            FaultKind.GATEWAY_CRASH.value:
                self.gateways_crashed + self.gateways_restarted,
            FaultKind.PROBE_BLACKOUT.value: self.probes_blacked_out,
            FaultKind.REPORT_DROP.value: self.reports_dropped,
            FaultKind.REPORT_STALENESS.value: self.reports_staled,
            FaultKind.INSTALL_DELAY.value: self.installs_delayed,
            FaultKind.INSTALL_PARTIAL.value: self.installs_truncated,
            FaultKind.PLATFORM_LOAD.value: self.load_spikes_applied,
            FaultKind.CONTROLLER_OUTAGE.value: self.epochs_skipped,
            FaultKind.CONTROL_PARTITION.value:
                self.reports_severed + self.installs_severed,
            FaultKind.MEMBERSHIP_CHURN.value: self.refreshes_churned,
        }


class FaultInjector:
    """Point-query API over a fault schedule (see module docstring)."""

    def __init__(self, schedule: FaultSchedule, seed: int = 0):
        self.schedule = schedule
        self._streams = RngStreams(seed)
        self._by_kind: Dict[FaultKind, List[FaultSpec]] = {
            kind: schedule.by_kind(kind) for kind in FaultKind}
        self._report_specs = (self._by_kind[FaultKind.REPORT_DROP]
                              + self._by_kind[FaultKind.REPORT_STALENESS])
        #: Schedule-order index per spec — the stable *fault id* that
        #: telemetry events carry so SLO breaches can name their cause.
        self._ids: Dict[FaultSpec, int] = {
            spec: index for index, spec in enumerate(schedule.specs)}
        self.counters = FaultCounters()
        #: Fault ids of one-shot windows (gateway crashes) that already
        #: fired.  Restored from checkpoints so a serve loop resuming at
        #: t > 0 never replays a crash that already happened.
        self._fired: set = set()

    def fault_id(self, spec: Optional[FaultSpec]) -> Optional[int]:
        """The schedule-order id of `spec` (None for None / foreign specs).

        Ids are the spec's index in the compiled schedule's sorted spec
        tuple, so they are stable across runs of the same schedule and
        across the injector's internal bucketing.
        """
        if spec is None:
            return None
        return self._ids.get(spec)

    def _fires(self, spec: FaultSpec, key: str, now: float) -> bool:
        """Whether `spec` acts on `key` (a link or region) at `now`: a
        one-packet burst at loss `probability`, by the millisecond."""
        if spec.probability >= 1.0:
            return True
        seed = self._streams.seed_for(f"{self._ids[spec]}.{key}")
        __, lost = burst_draws(seed, round(now * 1000.0), spec.probability,
                               1)
        return bool(lost)

    # ------------------------------------------------------- one-shot windows
    def mark_fired(self, spec: FaultSpec) -> None:
        """Record that a one-shot window (a crash) was applied."""
        fid = self._ids.get(spec)
        if fid is not None:
            self._fired.add(fid)

    def fired(self, spec: FaultSpec) -> bool:
        """Whether `spec` was already applied (this run or pre-restore)."""
        fid = self._ids.get(spec)
        return fid is not None and fid in self._fired

    # ------------------------------------------------------- checkpoint state
    def export_state(self) -> Dict[str, object]:
        """JSON-ready injector state for checkpoints.

        Fault ids are schedule-order indices, so the exported state is
        only meaningful against the *same* schedule; restorers should
        verify the schedule matches before importing.
        """
        return {"counters": self.counters.as_dict(),
                "fired": sorted(self._fired)}

    def import_state(self, doc: Dict[str, object]) -> None:
        """Restore counters and fired-window ids from `export_state`."""
        counters = doc.get("counters") or {}
        for name, value in counters.items():
            if hasattr(self.counters, name):
                setattr(self.counters, name, int(value))
        self._fired = set(int(fid) for fid in doc.get("fired") or ())

    # ------------------------------------------------------------- controller
    def controller_down(self, now: float) -> Optional[FaultSpec]:
        """The outage spec covering `now`, if any (first by start time)."""
        for spec in self._by_kind[FaultKind.CONTROLLER_OUTAGE]:
            if spec.active(now):
                return spec
        return None

    # --------------------------------------------------------------- probing
    def probe_blackout(self, hops: Sequence[Tuple[str, str, LinkType]],
                       now: float) -> Dict[int, FaultSpec]:
        """The blackout spec covering each of the directed links `hops`
        at `now` (the first in schedule order), by position; links no
        window covers are absent, so an instant without blackout gives
        an empty dict.  One query per probing instant: the spec lets
        the probing seam annotate its telemetry with the fault id."""
        active = [spec for spec in self._by_kind[FaultKind.PROBE_BLACKOUT]
                  if spec.active(now)]
        covered: Dict[int, FaultSpec] = {}
        if active:
            for k, (src, dst, link_type) in enumerate(hops):
                for spec in active:
                    if spec.matches_link(src, dst, link_type):
                        covered[k] = spec
                        break
        return covered

    def region_blackout(self, region: str, now: float) -> bool:
        """Whether a region-wide (dst-less) blackout covers `region`."""
        for spec in self._by_kind[FaultKind.PROBE_BLACKOUT]:
            if (spec.active(now) and spec.matches_region(region)
                    and spec.dst is None and spec.link_type is None):
                return True
        return False

    # ----------------------------------------------------------- NIB reports
    def reports_matched(self, batch: ReportBatch) -> List[int]:
        """Positions of the reports in `batch` that `filter_report` may
        touch: those a report-drop or -staleness window, active at one
        of the batch's instants, matches.  Empty at an instant no such
        window covers, which is the NIB's licence to skip the filter."""
        specs = [spec for t in set(batch.reported_at.tolist())
                 for spec in self._report_specs if spec.active(t)]
        if not specs:
            return []
        codes = batch.codes
        links = zip(batch.src.tolist(), batch.dst.tolist(),
                    batch.tier.tolist())
        return [k for k, (i, j, tier) in enumerate(links)
                if any(spec.matches_link(codes[i], codes[j], TYPE_ORDER[tier])
                       for spec in specs)]

    def filter_report(self, report: LinkReport) -> Optional[LinkReport]:
        """Apply drop/staleness faults to one monitoring report.

        Returns None when the report is lost, a timestamp-shifted copy
        when a staleness fault matches, and the original object when no
        fault applies (identity is the no-fault signal the NIB seam
        uses to emit telemetry only for touched reports).
        """
        now = report.reported_at
        for spec in self._by_kind[FaultKind.REPORT_DROP]:
            if spec.active(now) and spec.matches_link(
                    report.src, report.dst, report.link_type):
                link = f"{report.src}->{report.dst}.{report.link_type.value}"
                if self._fires(spec, link, now):
                    self.counters.reports_dropped += 1
                    return None
        for spec in self._by_kind[FaultKind.REPORT_STALENESS]:
            if spec.active(now) and spec.matches_link(
                    report.src, report.dst, report.link_type):
                self.counters.reports_staled += 1
                return replace(report, reported_at=max(
                    0.0, report.reported_at - spec.staleness_s))
        return report

    # -------------------------------------------------------------- installs
    def install_delay_spec(self, region: str,
                           now: float) -> Optional[FaultSpec]:
        """The governing (longest-delay) install-delay spec, if any."""
        worst: Optional[FaultSpec] = None
        for spec in self._by_kind[FaultKind.INSTALL_DELAY]:
            if spec.active(now) and spec.matches_region(region):
                if worst is None or spec.delay_s > worst.delay_s:
                    worst = spec
        return worst

    def install_delay(self, region: str, now: float) -> float:
        """How late this epoch's install lands in `region` (0 = on time)."""
        spec = self.install_delay_spec(region, now)
        return spec.delay_s if spec is not None else 0.0

    def install_partial_spec(self, region: str,
                             now: float) -> Optional[FaultSpec]:
        """The governing (lowest keep-fraction) partial spec, if any."""
        worst: Optional[FaultSpec] = None
        for spec in self._by_kind[FaultKind.INSTALL_PARTIAL]:
            if spec.active(now) and spec.matches_region(region):
                if worst is None or spec.keep_fraction < worst.keep_fraction:
                    worst = spec
        return worst

    def install_keep_fraction(self, region: str, now: float) -> float:
        """Fraction of the install that survives (1.0 = complete)."""
        spec = self.install_partial_spec(region, now)
        return spec.keep_fraction if spec is not None else 1.0

    # ---------------------------------------------------------- provisioning
    def platform_load(self, region: str, now: float) -> float:
        """The provisioning-storm load factor for `region` (>= 1)."""
        load = 1.0
        for spec in self._by_kind[FaultKind.PLATFORM_LOAD]:
            if spec.active(now) and spec.matches_region(region):
                load = max(load, spec.load)
        return load

    # -------------------------------------------------------------- gateways
    def crash_windows(self) -> List[FaultSpec]:
        """Gateway-crash specs, for the simulator to put on its queue."""
        return list(self._by_kind[FaultKind.GATEWAY_CRASH])

    # ------------------------------------------------------------- partitions
    def active_partitions(self, now: float) -> List[FaultSpec]:
        """Every control-partition window covering `now`, schedule order."""
        return [spec
                for spec in self._by_kind[FaultKind.CONTROL_PARTITION]
                if spec.active(now)]

    def partition_regions(self, now: float) -> frozenset:
        """The union of regions currently severed from the controller."""
        severed: set = set()
        for spec in self._by_kind[FaultKind.CONTROL_PARTITION]:
            if spec.active(now):
                severed.update(spec.regions)
        return frozenset(severed)

    # ------------------------------------------------------------- membership
    def membership_churn(self, region: str, now: float) -> Optional[FaultSpec]:
        """The churn spec suppressing this region's refresh, if any.

        Probabilistic suppression (``probability < 1``) is decided by
        (fault id, region, instant): a draw happens only when a matching
        window is active, and asks nothing of any other query.
        """
        for spec in self._by_kind[FaultKind.MEMBERSHIP_CHURN]:
            if (spec.active(now) and spec.matches_region(region)
                    and self._fires(spec, region, now)):
                return spec
        return None


def truncate_install(entries: Entries, keep_fraction: float) -> Entries:
    """Deterministically keep the first `keep_fraction` of an install.

    Entries are ordered by stream id, so which streams lose their rows
    depends only on the table content — never on dict order or RNG.
    """
    keep = int(len(entries) * keep_fraction)
    return {sid: entries[sid] for sid in sorted(entries)[:keep]}


class FaultExtension:
    """Drives `injector` (a non-empty schedule) against `engine`."""

    def __init__(self, engine, injector: FaultInjector):
        self.engine = engine
        self.injector = injector
        engine.monitoring_block.faults = self.injector
        for code, pool in engine.pools.items():
            pool.platform_load_fn = self._load_fn(code)
        self.controller_restarted()

    def controller_restarted(self) -> None:
        self.engine.controller.nib.fault_filter = self.injector

    def _load_fn(self, code: str):
        """Per-region provisioning-storm hook for a `ContainerPool`."""
        injector = self.injector

        def load(now: float) -> float:
            value = injector.platform_load(code, now)
            if value > 1.0:
                injector.counters.load_spikes_applied += 1
            return value
        return load

    # ------------------------------------------------------- gateway crashes
    def schedule(self, sim, start_s: float) -> None:
        """Queue the crash windows (priority -1: before the controller).
        Windows already fired — state restored from a checkpoint taken
        at t > 0 — are not replayed."""
        for spec in self.injector.crash_windows():
            if spec.end_s <= start_s or self.injector.fired(spec):
                continue
            sim.schedule_at(max(spec.start_s, start_s),
                            lambda spec=spec: self._crash(sim, spec),
                            priority=-1)

    def _crash(self, sim, spec: FaultSpec) -> None:
        """Fire one gateway-crash window (and queue its restarts)."""
        clusters = self.engine.clusters
        self.injector.mark_fired(spec)
        codes = [spec.region] if spec.region is not None else sorted(clusters)
        fault_id = self.injector.fault_id(spec)
        for code in codes:
            victims = clusters[code].crash_gateways(
                spec.count, sim.now, fault_id=fault_id)
            self.injector.counters.gateways_crashed += len(victims)
            if victims and spec.restart and math.isfinite(spec.end_s):
                sim.schedule_at(
                    max(spec.end_s, sim.now),
                    lambda code=code, n=len(victims): self._restart(
                        sim, code, n, fault_id),
                    priority=-1)

    def _restart(self, sim, code: str, count: int,
                 fault_id: Optional[int]) -> None:
        started = self.engine.clusters[code].restore_gateways(
            count, sim.now, fault_id=fault_id)
        self.injector.counters.gateways_restarted += len(started)

    # ------------------------------------------------------------ partitions
    def unreachable(self, now: float) -> frozenset:
        return self.injector.partition_regions(now)

    def reports_severed(self, cluster, reports, now: float) -> None:
        """The reports never cross the partition edge to the global
        controller (its NIB ages, its membership entries starve)."""
        self.injector.counters.reports_severed += len(reports)

    def install_severed(self, code: str) -> None:
        """Count one install push stopped at a partition edge."""
        self.injector.counters.installs_severed += 1
        if _TEL.enabled:
            _TEL.counter("fault.installs_severed").inc()

    def epoch_start(self, sim, unreachable: frozenset) -> None:
        if unreachable and _TEL.enabled:
            for spec in self.injector.active_partitions(sim.now):
                _TEL.event("fault_control_partition", t=sim.now,
                           regions=list(spec.regions),
                           fault_id=self.injector.fault_id(spec))

    # ------------------------------------------------------- controller outage
    def epoch_gate(self, now: float) -> Optional[FaultSpec]:
        return self.injector.controller_down(now)

    def epoch_skipped(self, sim, outage: FaultSpec,
                      unreachable: frozenset) -> None:
        self.injector.counters.epochs_skipped += 1
        if _TEL.enabled:
            now, skipped = sim.now, self.engine.skipped_epochs
            _TEL.counter("eventsim.skipped_epochs").inc()
            _TEL.event("controller_outage", t=now,
                       outage_start=outage.start_s,
                       outage_end=outage.end_s, skipped_epochs=skipped)
            _TEL.counter("fault.epochs_skipped").inc()
            _TEL.event("fault_controller_outage", t=now,
                       outage_start=outage.start_s,
                       outage_end=outage.end_s, skipped_epochs=skipped,
                       fault_id=self.injector.fault_id(outage))
            _TEL.flush_stream(now)

    # -------------------------------------------------------------- installs
    def truncate_install(self, code: str, cluster, entries: Entries,
                         plans: Plans, now: float) -> Tuple[Entries, Plans]:
        """Partial install: only the first `keep` fraction of the
        update's rows (by stream id) lands; rows beyond the cut keep
        their previously installed value — the stream rides a stale
        table row, it does not vanish.  Streams absent from the new
        table are still withdrawn."""
        keep = self.injector.install_keep_fraction(code, now)
        if keep >= 1.0:
            return entries, plans
        kept = truncate_install(entries, keep)
        stale_entries = cluster.current_entries()
        stale_plans = cluster.current_plans()
        merged = dict(kept)
        merged_plans = {sid: plan for sid, plan in plans.items()
                        if sid in kept}
        for sid in entries:
            if sid in kept:
                continue
            if sid in stale_entries:
                merged[sid] = stale_entries[sid]
            if sid in stale_plans:
                merged_plans[sid] = stale_plans[sid]
        self.injector.counters.installs_truncated += 1
        if _TEL.enabled:
            _TEL.counter("fault.installs_truncated").inc()
            _TEL.event("fault_install_partial", t=now, region=code,
                       fresh=len(kept), stale=len(merged) - len(kept),
                       keep_fraction=keep,
                       fault_id=self.injector.fault_id(
                           self.injector.install_partial_spec(code, now)))
        return merged, merged_plans

    def install_delay(self, code: str, now: float) -> float:
        """Seconds an install-delay fault holds back one region's push
        at `now` (0.0 without one); a delayed push is counted and traced."""
        spec = self.injector.install_delay_spec(code, now)
        if spec is None or spec.delay_s <= 0.0:
            return 0.0
        self.injector.counters.installs_delayed += 1
        if _TEL.enabled:
            _TEL.counter("fault.installs_delayed").inc()
            _TEL.event("fault_install_delayed", t=now, region=code,
                       delay_s=spec.delay_s,
                       fault_id=self.injector.fault_id(spec))
        return spec.delay_s

    # ----------------------------------------------------------------- state
    def counters(self) -> Dict[str, Dict[str, int]]:
        return {"fault_counters": self.injector.counters.as_dict()}

    def health(self, now: float) -> Dict[str, object]:
        return {"fault_kind_counters": self.injector.counters.by_kind(),
                "fault_state": self.injector.export_state(),
                "active_partitions": len(
                    self.injector.active_partitions(now))}

    def restore(self, checkpoint, t: float) -> None:
        """Import the injector's progress — counters and fired one-shot
        windows — so a resumed run never replays a fault."""
        if checkpoint.fault_state:
            self.injector.import_state(checkpoint.fault_state)


__all__ = ["FaultCounters", "FaultExtension", "FaultInjector",
           "truncate_install"]
