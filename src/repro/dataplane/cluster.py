"""A region's gateway cluster with group-based probing (§4.1).

`RegionCluster` owns the gateways of one region.  Only the elected
representatives run active probing; their per-link estimates are
median-aggregated into the *group state*, which is (a) pushed to the
non-representative gateways so their local fast reaction sees the same
degradation verdicts, and (b) reported to the controller's NIB.  This is
the mechanism that turns O(N(N-1)M^2) probe streams into O(N(N-1)R).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.controlplane.nib import LinkReport
from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.gateway import ForwardDecision, Gateway
from repro.dataplane.grouping import ProbingGroupManager
from repro.obs import telemetry as _telemetry
from repro.underlay.linkstate import LinkType
from repro.underlay.topology import Underlay

_TEL = _telemetry()


class RegionCluster:
    """All gateways of one region plus the probing-group machinery."""

    def __init__(self, region: str, underlay: Underlay, *,
                 initial_gateways: int = 2,
                 monitoring: Optional[MonitoringConfig] = None,
                 reaction: Optional[ReactionConfig] = None,
                 rng: Optional[np.random.Generator] = None):
        if initial_gateways < 1:
            raise ValueError("a cluster needs at least one gateway")
        self.region = region
        self.underlay = underlay
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringConfig())
        self.reaction = reaction if reaction is not None else ReactionConfig()
        #: Handed to every gateway the cluster creates (`arm_resilience`).
        self.resilience = None
        self.resilience_counters = None
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._grouping = ProbingGroupManager(
            underlay.codes, self.monitoring.representatives)
        self._next_gateway_id = 0
        self.gateways: Dict[int, Gateway] = {}
        self._rr_index = 0
        #: Fault-injection seam: a `repro.faults.FaultInjector` (or None).
        self.faults = None
        for __ in range(initial_gateways):
            self._add_gateway()

    # ---------------------------------------------------------------- fleet
    def _add_gateway(self) -> Gateway:
        gid = self._next_gateway_id
        self._next_gateway_id += 1
        gateway = Gateway(self.region, gid, self.underlay,
                          monitoring=self.monitoring, reaction=self.reaction,
                          rng=np.random.default_rng(
                              int(self._rng.integers(2 ** 32))),
                          resilience=self.resilience,
                          resilience_counters=self.resilience_counters)
        self.gateways[gid] = gateway
        return gateway

    def arm_resilience(self, config, counters) -> None:
        """Arm degraded-mode forwarding and failback hold-down (see
        `Gateway`) on every current and future gateway of the cluster:
        `config` is a resolved `ResilienceConfig`, `counters` the
        deployment-shared `ResilienceCounters`."""
        self.resilience = config
        self.resilience_counters = counters
        for gateway in self.gateways.values():
            gateway.resilience = config
            gateway.resilience_counters = counters

    def _clone_from_sibling(self, gateway: Gateway) -> None:
        """Seed a fresh gateway with a sibling's tables AND reaction
        plans, so it can fast-react before the next control epoch."""
        sibling = next(iter(self.gateways.values()))
        if sibling is gateway:
            return
        gateway.install_tables(
            {e.stream_id: (e.next_hop, e.link_type)
             for e in sibling.table.entries()},
            sibling.reaction_plans(),
            version=sibling.installed_version,
            now=sibling.installed_at)

    def scale_to(self, target: int) -> None:
        """Event-mode scaling: adjust the gateway count immediately.

        (Provisioning delays are modelled by `elastic.ContainerPool`; the
        event simulator applies them before calling this.)
        """
        if target < 1:
            raise ValueError("cannot scale a cluster below one gateway")
        while len(self.gateways) < target:
            gateway = self._add_gateway()
            self._clone_from_sibling(gateway)
        while len(self.gateways) > target:
            # Remove the newest gateways first (stable representatives).
            victim = max(self.gateways)
            del self.gateways[victim]

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
        victims = sorted(self.gateways)[:max(0, min(count,
                                                    len(self.gateways) - 1))]
        for gid in victims:
            del self.gateways[gid]
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
        seeded with a surviving sibling's tables and reaction plans —
        the same inheritance path scale-up uses."""
        started = []
        for __ in range(count):
            gateway = self._add_gateway()
            self._clone_from_sibling(gateway)
            started.append(gateway.gateway_id)
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
        ids = self._grouping.elect(self.region, list(self.gateways))
        return [self.gateways[i] for i in ids]

    # ----------------------------------------------------------- monitoring
    def probe_round(self, now: float) -> List[LinkReport]:
        """One group-based probing round.

        Representatives probe every adjacent link of both tiers; their
        estimates are median-aggregated into group reports, the group
        state is distributed to all member gateways, and the reports are
        returned for the controller's NIB.
        """
        reps = self.representatives()
        blackout = None
        if self.faults is not None:
            faults = self.faults

            def blackout(dst, lt):
                # Returns the matching FaultSpec (truthy) or None.
                return faults.probe_blackout(self.region, dst, lt, now)
        for rep in reps:
            rep.probe_all(now, blackout=blackout)
        members = [gateway for gateway in self.gateways.values()
                   if gateway not in reps]
        reports: List[LinkReport] = []
        degraded_links = 0
        blacked_out = 0
        blacked_ids = set()
        for dst in self.underlay.codes:
            if dst == self.region:
                continue
            for lt in (LinkType.INTERNET, LinkType.PREMIUM):
                spec = blackout(dst, lt) if blackout is not None else None
                if spec:
                    # Blind spot: no group state, no NIB report — the
                    # controller sees this link age into staleness.
                    blacked_out += 1
                    if self.faults is not None:
                        self.faults.counters.probes_blacked_out += 1
                        fid = self.faults.fault_id(spec)
                        if fid is not None:
                            blacked_ids.add(fid)
                    continue
                estimators = [rep.estimator(dst, lt) for rep in reps]
                report = self._grouping.aggregate(
                    self.region, dst, lt,
                    [est.estimate() for est in estimators], now)
                degraded_votes = sum(est.degraded for est in estimators)
                # Strict majority of representatives (median semantics).
                degraded = degraded_votes * 2 > len(reps)
                degraded_links += degraded
                for gateway in members:
                    gateway.estimator(dst, lt).apply_group_state(
                        now, report.latency_ms, report.loss_rate, degraded)
                reports.append(report)
        if _TEL.enabled:
            _TEL.counter("cluster.probe_rounds").inc()
            _TEL.event("probe_round", t=now, region=self.region,
                       representatives=len(reps), reports=len(reports),
                       degraded_links=degraded_links)
            if blacked_out:
                _TEL.event("fault_probe_blackout", t=now,
                           region=self.region, links=blacked_out,
                           fault_ids=sorted(blacked_ids))
        return reports

    def flush_passive(self, now: float) -> None:
        for gateway in self.gateways.values():
            gateway.flush_passive(now)

    # ----------------------------------------------------------- forwarding
    def install(self, entries: Dict[int, Tuple[str, LinkType]],
                plans: Dict[int, Tuple[str, ...]],
                version: Optional[int] = None,
                now: Optional[float] = None) -> None:
        """Push a controller update to every gateway of the cluster.

        `version`/`now` stamp the update for the resilience layer's
        version ordering and staleness tracking (see `Gateway`)."""
        for gateway in self.gateways.values():
            gateway.install_tables(entries, plans, version=version, now=now)

    def current_entries(self) -> Dict[int, Tuple[str, LinkType]]:
        """The installed forwarding entries (uniform across gateways)."""
        if not self.gateways:
            return {}
        gateway = next(iter(self.gateways.values()))
        return {e.stream_id: (e.next_hop, e.link_type)
                for e in gateway.table.entries()}

    def current_plans(self) -> Dict[int, Tuple[str, ...]]:
        """The installed reaction plans (uniform across gateways)."""
        if not self.gateways:
            return {}
        return next(iter(self.gateways.values())).reaction_plans()

    def forward(self, stream_id: int,
                now: Optional[float] = None) -> Optional[ForwardDecision]:
        """Resolve a stream via one of the gateways (round robin)."""
        resolved = self.resolve(stream_id, now)
        return resolved[1] if resolved is not None else None

    def resolve(self, stream_id: int, now: Optional[float] = None
                ) -> Optional[Tuple[Gateway, ForwardDecision]]:
        """Like `forward`, but also says WHICH gateway decided.

        The event simulator needs the deciding gateway so passive
        samples land on the container that actually carried the packets
        (not an arbitrary sibling)."""
        if not self.gateways:
            return None
        ids = sorted(self.gateways)
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
        total = 0
        for rep in self.representatives():
            for dst in self.underlay.codes:
                if dst == self.region:
                    continue
                for lt in (LinkType.INTERNET, LinkType.PREMIUM):
                    total += rep.estimator(dst, lt).degradation_count
        return total
