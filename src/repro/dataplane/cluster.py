"""A region's gateway cluster with group-based probing (§4.1).

`RegionCluster` owns the gateways of one region and the one
`ForwardingTable` they all forward from (the controller pushes an update
per region, not per gateway).  Only the elected representatives run
active probing; their per-link estimates are median-aggregated into the
*group state*, which is (a) pushed to the non-representative gateways so
their local fast reaction sees the same degradation verdicts, and (b)
reported to the controller's NIB.  This is the mechanism that turns
O(N(N-1)M^2) probe streams into O(N(N-1)R).

The gateways' monitoring state is one block of arrays (an
`EstimatorBank` of shape ``(gateways, links)``, representatives first):
a probing round is a few dozen array operations over it — one ingest
for all representatives, one median, one hand-over to all members, one
`ReportBatch`.  The k-th representative measures the k-th probe slot's
bursts (`BurstNoise`, drawn once per instant for every cluster), which
no crash, scale-out or other cluster's round can change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.controlplane.nib import ReportBatch
from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.estimator import EstimatorBank
from repro.dataplane.forwarding import Entries, ForwardingTable, Plans
from repro.dataplane.gateway import ForwardDecision, Gateway
from repro.dataplane.grouping import ProbingGroupManager
from repro.dataplane.probing import BurstNoise, burst_bytes
from repro.obs import telemetry as _telemetry
from repro.sim.rng import RngStreams
from repro.underlay.topology import Underlay

_TEL = _telemetry()


def probe_noise(underlay: Underlay, monitoring: MonitoringConfig,
                streams: RngStreams) -> BurstNoise:
    """Every representative slot's probe bursts on every link of
    `underlay`: one per deployment, shared by its clusters."""
    return BurstNoise(underlay, streams, "probe", monitoring.representatives,
                      monitoring.packets_per_burst,
                      monitoring.burst_interval_s)


class RegionCluster:
    """All gateways of one region plus the probing-group machinery."""

    def __init__(self, region: str, underlay: Underlay, *,
                 initial_gateways: int = 2,
                 monitoring: Optional[MonitoringConfig] = None,
                 reaction: Optional[ReactionConfig] = None,
                 noise: Optional[BurstNoise] = None):
        """`noise` is the deployment's `probe_noise` (of the same
        `monitoring`); a cluster built alone makes one from seed 0."""
        if initial_gateways < 1:
            raise ValueError("a cluster needs at least one gateway")
        self.region = region
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringConfig())
        self.reaction = reaction if reaction is not None else ReactionConfig()
        self.noise = (noise if noise is not None else
                      probe_noise(underlay, self.monitoring, RngStreams(0)))
        #: The region's links: their run in `noise`, their position in
        #: the monitoring state and reports, their (tier, src, dst).
        self._span = self.noise.span(region)
        self.links = {(dst, lt): k for k, (__, dst, lt)
                      in enumerate(self.noise.hops[self._span])}
        self.link_index = tuple(axis[self._span]
                                for axis in self.noise.index)
        #: Handed to every gateway the cluster creates (`arm_resilience`).
        self.resilience = None
        self.resilience_counters = None
        self.stale_after_s = None
        self._grouping = ProbingGroupManager(
            underlay.codes, self.monitoring.representatives)
        self._next_gateway_id = 0
        #: The region's installed update.  Every gateway is born holding
        #: it: a scale-up or crash replacement forwards like its siblings.
        self.table = ForwardingTable()
        self.gateways: Dict[int, Gateway] = {}
        self._rr_index = 0
        #: Fault-injection seam: a `repro.faults.FaultInjector` (or None).
        self.faults = None
        for __ in range(initial_gateways):
            self._add_gateway()
        self._fleet_changed()

    # ---------------------------------------------------------------- fleet
    def _fleet_changed(self) -> None:
        """Gateways came or went: bring what is derived from the fleet
        up to date — the ids in order (the round robin's), the elected
        representatives, and the monitoring block, whose rows are the
        banks of `_fleet`: the representatives', then the others'."""
        self._ids = sorted(self.gateways)
        self._elected = self._grouping.elect(self.region, self._ids)
        self._fleet = [self.gateways[gid] for gid in self._elected + [
            gid for gid in self._ids if gid not in self._elected]]
        self._bank = EstimatorBank.stacked(
            [gateway.bank for gateway in self._fleet])

    def _add_gateway(self) -> Gateway:
        gid = self._next_gateway_id
        self._next_gateway_id += 1
        gateway = Gateway(self.region, gid, self.links, self.table,
                          self.monitoring, self.reaction,
                          resilience=self.resilience,
                          resilience_counters=self.resilience_counters,
                          stale_after_s=self.stale_after_s)
        self.gateways[gid] = gateway
        return gateway

    def arm_resilience(self, config, counters,
                       stale_after_s: float) -> None:
        """Arm degraded-mode forwarding and failback hold-down (see
        `Gateway`) on every current and future gateway of the cluster:
        `config` is a `ResilienceConfig`, `counters` the
        deployment-shared `ResilienceCounters`, `stale_after_s` the age
        past which a table is stale."""
        self.resilience = config
        self.resilience_counters = counters
        self.stale_after_s = stale_after_s
        for gateway in self.gateways.values():
            gateway.resilience = config
            gateway.resilience_counters = counters
            gateway.stale_after_s = stale_after_s

    def scale_to(self, target: int) -> None:
        """Event-mode scaling: adjust the gateway count immediately.

        (Provisioning delays are modelled by `elastic.ContainerPool`; the
        event simulator applies them before calling this.)
        """
        if target < 1:
            raise ValueError("cannot scale a cluster below one gateway")
        if target == len(self.gateways):
            return
        while len(self.gateways) < target:
            self._add_gateway()
        while len(self.gateways) > target:
            # Remove the newest gateways first (stable representatives).
            victim = max(self.gateways)
            del self.gateways[victim]
        self._fleet_changed()

    def crash_gateways(self, count: int, now: Optional[float] = None,
                       fault_id: Optional[int] = None) -> List[int]:
        """Fault injection: `count` gateways fail abruptly.

        The *lowest* ids die first — those are the stable probing
        representatives, so a crash also wipes the freshest monitoring
        state (the harshest realistic case).  At least one gateway
        always survives; the crashed ids are returned so the injector
        can restart as many later.  `fault_id` (the schedule-order id
        of the driving spec) rides on the telemetry event so breaches
        can be traced back to the injected fault.
        """
        victims = self._ids[:max(0, min(count, len(self.gateways) - 1))]
        for gid in victims:
            del self.gateways[gid]
        if victims:
            self._fleet_changed()
        # Re-point the round-robin cursor into the shrunken fleet so the
        # spared gateway never inherits a dangling decision index.
        # (`resolve` re-modulos by the live count, so this is a pure
        # normalization — behaviour-identical, but the cursor invariant
        # `0 <= _rr_index < size` holds again for anything that reads it.)
        self._rr_index %= len(self.gateways)
        if victims and _TEL.enabled:
            _TEL.counter("fault.gateways_crashed").inc(len(victims))
            fields = {"region": self.region, "gateways": victims,
                      "survivors": len(self.gateways)}
            if fault_id is not None:
                fields["fault_id"] = fault_id
            _TEL.event("fault_gateway_crash", t=now, **fields)
        return victims

    def restore_gateways(self, count: int, now: Optional[float] = None,
                         fault_id: Optional[int] = None) -> List[int]:
        """Fault injection: start `count` replacement gateways.

        Replacements are fresh containers (new ids, cold estimators)
        forwarding from the region's table, like a scale-up's."""
        started = [self._add_gateway().gateway_id for __ in range(count)]
        if started:
            self._fleet_changed()
        if started and _TEL.enabled:
            _TEL.counter("fault.gateways_restarted").inc(len(started))
            fields = {"region": self.region, "gateways": started,
                      "fleet": len(self.gateways)}
            if fault_id is not None:
                fields["fault_id"] = fault_id
            _TEL.event("fault_gateway_restart", t=now, **fields)
        return started

    @property
    def size(self) -> int:
        return len(self.gateways)

    def representatives(self) -> List[Gateway]:
        """The elected probing gateways (an election that changed the
        set since the last call is traced here, not when it happened)."""
        self._grouping.announce(self.region, self._elected,
                                len(self.gateways))
        return self._fleet[:len(self._elected)]

    # ----------------------------------------------------------- monitoring
    def probe_round(self, now: float) -> ReportBatch:
        """One group-based probing round.

        Representatives probe every adjacent link of both tiers; their
        estimates are median-aggregated into group reports, the group
        state is distributed to all member gateways, and the reports are
        returned for the controller's NIB.  A link under a probe
        blackout (a fault-injection seam, asked once per link) is a
        blind spot: its bursts are not taken in — no group state, no NIB
        report — so its estimators, and the controller's view of it, age
        into staleness.
        """
        reps = self.representatives()
        links, index = slice(None), self.link_index
        blacked_ids = {}
        if self.faults is not None:
            for (dst, lt), k in self.links.items():
                # The matching FaultSpec, or None.
                spec = self.faults.probe_blackout(self.region, dst, lt, now)
                if spec is not None:
                    blacked_ids[k] = self.faults.fault_id(spec)
            if blacked_ids:
                self.faults.counters.probes_blacked_out += len(blacked_ids)
                links = np.array([k for k in range(len(self.links))
                                  if k not in blacked_ids], dtype=np.intp)
                index = tuple(axis[links] for axis in index)
        latency, __, jitter, lost = self.noise.at(now)
        run = (slice(len(reps)), self._span)
        lost = lost[run][:, links]
        measured = latency[self._span][links] * jitter[run][:, links]
        nbytes = burst_bytes(lost, self.monitoring) // len(reps)
        for rep in reps:
            rep.probe_bytes_sent += nbytes
        bank = self._bank
        probed = (slice(len(reps)), links)
        bank.ingest(probed, now, measured,
                    lost / self.monitoring.packets_per_burst)
        tier, src, dst = index
        reports = self._grouping.aggregate(
            src, dst, tier,
            (bank.latency_ms[probed], bank.loss_rate[probed]), now)
        # Strict majority of representatives (median semantics); no
        # vote to count while no representative flags any link.
        flagged = bank.degraded[probed]
        degraded = (flagged.sum(axis=0) * 2 > len(reps) if flagged.any()
                    else flagged[0])
        if len(self.gateways) > len(reps):
            bank.adopt((slice(len(reps), None), links), now,
                       reports.latency_ms, reports.loss_rate, degraded)
        if _TEL.enabled:
            _TEL.counter("cluster.probe_rounds").inc()
            _TEL.event("probe_round", t=now, region=self.region,
                       representatives=len(reps), reports=len(reports),
                       degraded_links=int(np.count_nonzero(degraded)))
            if blacked_ids:
                _TEL.counter("fault.probes_blacked_out").inc(
                    len(blacked_ids) * len(reps))
                _TEL.event("fault_probe_blackout", t=now,
                           region=self.region, links=len(blacked_ids),
                           fault_ids=sorted(
                               set(blacked_ids.values()) - {None}))
        return reports

    def flush_passive(self, now: float) -> None:
        """Fold every gateway's passive samples into the estimators."""
        rows, links, latency_ms, loss_rate = [], [], [], []
        for row, gateway in enumerate(self._fleet):
            sampled = gateway.passive_samples(now)
            rows += [row] * len(sampled[0])
            links += sampled[0]
            latency_ms += sampled[1]
            loss_rate += sampled[2]
        if rows:
            self._bank.ingest((np.array(rows), np.array(links)), now,
                              np.array(latency_ms), np.array(loss_rate))

    # ----------------------------------------------------------- forwarding
    def install(self, entries: Entries, plans: Plans,
                version: Optional[int] = None,
                now: Optional[float] = None) -> bool:
        """Push a controller update to the region: one guarded replace
        of the table every gateway forwards from (`ForwardingTable.
        install`, which says what `version` and `now` do and when the
        answer is False)."""
        accepted = self.table.install(entries, plans, version, now)
        if accepted:
            for gateway in self.gateways.values():
                gateway.table_replaced()
        return accepted

    def current_entries(self) -> Entries:
        """A copy of the installed forwarding entries."""
        return dict(self.table.rows)

    def current_plans(self) -> Plans:
        """A copy of the installed reaction plans."""
        return dict(self.table.plans)

    def resolve(self, stream_id: int, now: Optional[float] = None
                ) -> Optional[Tuple[Gateway, ForwardDecision]]:
        """Resolve a stream via one of the gateways (round robin), and
        say WHICH gateway decided.

        The event simulator needs the deciding gateway so passive
        samples land on the container that actually carried the packets
        (not an arbitrary sibling)."""
        if not self.gateways:
            return None
        ids = self._ids
        gid = ids[self._rr_index % len(ids)]
        self._rr_index += 1
        gateway = self.gateways[gid]
        decision = gateway.forward(stream_id, now)
        return None if decision is None else (gateway, decision)

    # ------------------------------------------------------------ telemetry
    def probe_bytes(self) -> int:
        return sum(g.probe_bytes_sent for g in self.gateways.values())

    def degradation_detections(self) -> int:
        """Total degradation triggers across representative estimators."""
        reps = len(self.representatives())
        return int(self._bank.degradation_count[:reps].sum())
