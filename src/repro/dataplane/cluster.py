"""A region's gateway cluster with group-based probing (§4.1).

`RegionCluster` owns the gateways of one region and the one
`ForwardingTable` they all forward from (the controller pushes an update
per region, not per gateway).  Only the elected representatives run
active probing; their per-link estimates are median-aggregated into the
*group state*, which is (a) pushed to the non-representative gateways so
their local fast reaction sees the same degradation verdicts, and (b)
reported to the controller's NIB.  This is the mechanism that turns
O(N(N-1)M^2) probe streams into O(N(N-1)R).

The gateways' monitoring state is one block of arrays across regions
(`MonitoringBlock`: an `EstimatorBank` of shape ``(gateway rows,
links per region)``, the representatives in slot-major slabs, then the
members), and a probing instant is a few dozen array operations over
it whatever the region count — one ingest for every representative,
one median per representative count, one hand-over to every member,
one `ReportBatch`.  The block also holds every gateway's open passive
windows (`PassiveTracker`), so a measurement tick books its hops in one
pass and a passive flush is one ingest.  The k-th representative of a
region measures the k-th probe slot's bursts (`BurstNoise`, drawn once
per instant), which no crash, scale-out or other region's probing can
change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.controlplane.nib import ReportBatch
from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.estimator import EstimatorBank
from repro.dataplane.forwarding import (Entries, ForwardDecision,
                                        ForwardingTable, Plans)
from repro.dataplane.gateway import Gateway
from repro.dataplane.grouping import ProbingGroupManager
from repro.dataplane.passive import PassiveTracker
from repro.dataplane.probing import BurstNoise, burst_bytes
from repro.obs import telemetry as _telemetry
from repro.obs.metrics import HotCounters
from repro.sim.rng import RngStreams
from repro.underlay.topology import Underlay

_TEL = _telemetry()
_ROUND_COUNTERS = HotCounters("cluster.probe_rounds")
_BLACKOUT_COUNTERS = HotCounters("fault.probes_blacked_out")


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
                 noise: Optional[BurstNoise] = None,
                 fast_reaction: bool = True):
        """`noise` is the deployment's `probe_noise` (of the same
        `monitoring`); a cluster built alone makes one from seed 0.
        `fast_reaction` is the variant's switch, handed to every gateway
        (`Gateway.forward`).  The
        cluster starts as the one region of its own `MonitoringBlock`; a
        deployment's block takes it over (`block`)."""
        if initial_gateways < 1:
            raise ValueError("a cluster needs at least one gateway")
        self.region = region
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringConfig())
        self.reaction = reaction if reaction is not None else ReactionConfig()
        self.fast_reaction = fast_reaction
        self.noise = (noise if noise is not None else
                      probe_noise(underlay, self.monitoring, RngStreams(0)))
        #: The region's links: their position in the monitoring state
        #: and in its run of `noise` and of the reports.
        self.links = {(dst, lt): k for k, (__, dst, lt)
                      in enumerate(self.noise.hops[self.noise.span(region)])}
        #: Handed to every gateway the cluster creates (`arm_resilience`).
        self.resilience = None
        self.resilience_counters = None
        self.stale_after_s = None
        self._grouping = ProbingGroupManager(
            underlay.codes, self.monitoring.representatives)
        self._next_gateway_id = 0
        #: The region's installed update.  Every gateway is born holding
        #: it: a scale-up or crash replacement forwards like its siblings.
        self.table = ForwardingTable(self.links)
        self.gateways: Dict[int, Gateway] = {}
        self._rr_index = 0
        for __ in range(initial_gateways):
            self._add_gateway()
        #: The monitoring block holding this region's rows.
        self.block = MonitoringBlock([self])
        self._fleet_changed()

    # ---------------------------------------------------------------- fleet
    def _fleet_changed(self) -> None:
        """Gateways came or went: bring what is derived from the fleet
        up to date — the ids in order (the round robin's), the elected
        representatives and `_fleet` (the representatives, then the
        others), and the monitoring block, which is rebuilt before it
        is next used."""
        self._ids = sorted(self.gateways)
        self._elected = self._grouping.elect(self.region, self._ids)
        self._fleet = [self.gateways[gid] for gid in self._elected + [
            gid for gid in self._ids if gid not in self._elected]]
        self.block.fleet_changed(self)

    def _add_gateway(self) -> Gateway:
        gid = self._next_gateway_id
        self._next_gateway_id += 1
        gateway = Gateway(self.region, gid, self.links, self.table,
                          self.monitoring, self.reaction,
                          resilience=self.resilience,
                          resilience_counters=self.resilience_counters,
                          stale_after_s=self.stale_after_s,
                          fast_reaction=self.fast_reaction)
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

    def crash_gateways(self, count: int, now: float,
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
        # The round robin goes on from the cursor reduced by the
        # survivors: `next_gateway` advances it without bound and reads
        # it modulo the fleet, so with k turns taken, n survivors and m
        # gateways after a later restart or `scale_to`, the next pick is
        # `(k mod n) mod m`, not `k mod m`.
        self._rr_index %= len(self.gateways)
        if victims and _TEL.enabled:
            _TEL.counter("fault.gateways_crashed").inc(len(victims))
            fields = {"region": self.region, "gateways": victims,
                      "survivors": len(self.gateways)}
            if fault_id is not None:
                fields["fault_id"] = fault_id
            _TEL.event("fault_gateway_crash", t=now, **fields)
        return victims

    def restore_gateways(self, count: int, now: float,
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

    @property
    def gateway_ids(self) -> List[int]:
        """The gateways' ids, in ascending order (do not mutate)."""
        return self._ids

    def representatives(self) -> List[Gateway]:
        """The elected probing gateways."""
        return self._fleet[:len(self._elected)]

    def trace_election(self) -> None:
        """Trace the elected set if it changed since it was last traced
        (at the first probing instant after the change, not at it)."""
        self._grouping.announce(self.region, self._elected,
                                len(self.gateways))

    # ----------------------------------------------------------- monitoring
    def probe_round(self, now: float) -> ReportBatch:
        """This region's share of its block's probing instant
        (`MonitoringBlock.probe`)."""
        reports, bounds = self.block.probe(now)
        k = self.block._position[self.region]
        return reports.take(slice(bounds[k], bounds[k + 1]))

    def flush_passive(self, now: float) -> None:
        """Close this region's gateways' passive windows and fold the
        sufficiently busy ones into their estimators: its rows' share of
        `MonitoringBlock.flush_passive`."""
        block = self.block
        block.refresh()
        index, latency_ms, loss_rate = block.passive.flush(
            block._rows[block._position[self.region]])
        if len(latency_ms):
            block.bank.ingest(index, now, latency_ms, loss_rate)

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

    def next_gateway(self) -> Gateway:
        """The gateway whose turn it is to forward (round robin over
        `gateway_ids`); the turn moves on."""
        ids = self._ids
        gateway = self.gateways[ids[self._rr_index % len(ids)]]
        self._rr_index += 1
        return gateway

    def resolve(self, stream_id: int, now: float
                ) -> Optional[Tuple[Gateway, ForwardDecision]]:
        """Resolve a stream via the gateway whose turn it is, and say
        WHICH gateway decided (None for a stream without a row).

        Passive samples must land on the container that actually
        carried the packets (not an arbitrary sibling); the event
        engine's walk takes the same two steps per hop."""
        gateway = self.next_gateway()
        decision = gateway.forward(stream_id, now)
        return None if decision is None else (gateway, decision)

    # ------------------------------------------------------------ telemetry
    def probe_bytes(self) -> int:
        return sum(g.probe_bytes_sent for g in self.gateways.values())

    def degradation_detections(self) -> int:
        """Total degradation triggers across representative estimators."""
        return sum(int(gateway.bank.degradation_count.sum())
                   for gateway in self.representatives())


class MonitoringBlock:
    """The monitoring state of every gateway of some region clusters —
    one `EstimatorBank` of ``(gateway rows, 2(N - 1) links)`` and the
    `PassiveTracker` of the same rows — and the probing instant, the
    passive booking and the passive flush over it.

    The clusters' regions are one run of their shared `BurstNoise`'s
    regions, in its order, so an instant's bursts and reports are the
    run's columns as they lie, one ``(regions, links)`` grid.  Rows come
    in slabs: per representative count r (a region with fewer gateways
    than R elects fewer), the representatives of the regions that
    elected r, slot-major — every such region's first, then every
    one's second, ... — so the slab is an ``(r, regions, links)`` view
    of the bank, as the r probe slots' bursts are of the noise's row;
    then every other gateway, region by region in `_fleet` order.
    `row_region` says whose a row is, `_rows` where a cluster's
    gateways are (in `_fleet` order), `Gateway.row` where a gateway is.
    Every gateway's `bank` and `passive` are views of its row; a fleet
    change of any cluster marks the block stale, and the next use
    rebuilds it from the gateways' (`EstimatorBank.stacked`,
    `PassiveTracker.stacked`) — a gateway that joined in between
    brought its own, and a departed one's row is dropped.
    """

    def __init__(self, clusters: Sequence[RegionCluster]):
        self.clusters = list(clusters)
        self.noise = noise = self.clusters[0].noise
        self.monitoring = self.clusters[0].monitoring
        #: Fault-injection seam: a `repro.faults.FaultInjector` (or None).
        self.faults = None
        self._grouping = ProbingGroupManager(
            noise.underlay.codes, self.monitoring.representatives)
        spans = [noise.span(cluster.region) for cluster in self.clusters]
        if any(a.stop != b.start for a, b in zip(spans, spans[1:])):
            raise ValueError("a block's regions must be one run of its "
                             "noise's regions, in their order")
        self._position = {}
        for k, cluster in enumerate(self.clusters):
            cluster.block = self
            self._position[cluster.region] = k
        #: The clusters' regions, in the block's order.
        self.codes = [cluster.region for cluster in self.clusters]
        #: The block's run of the noise's links, as ``(regions, links)``.
        self.run = slice(spans[0].start, spans[-1].stop)
        self.shape = (len(spans), spans[0].stop - spans[0].start)
        #: (tier, src, dst) per link of the run: every report batch's
        #: link columns, these very arrays while no link is blacked out.
        self.tier, self.src, self.dst = (axis[self.run]
                                         for axis in noise.index)
        #: Where each region's reports begin (the count, last) when no
        #: link is blacked out.
        self.bounds = list(range(0, self.run.stop - self.run.start + 1,
                                 self.shape[1]))
        self._stale = True
        #: Clusters whose election may have changed since it was traced.
        self._untraced = set(self.clusters)

    def fleet_changed(self, cluster: RegionCluster) -> None:
        """`cluster`'s fleet changed: rebuild before the next use, and
        trace its election at the next traced instant."""
        self._stale = True
        self._untraced.add(cluster)

    def _rebuild(self) -> None:
        fleets = [cluster._fleet for cluster in self.clusters]
        reps = [len(cluster._elected) for cluster in self.clusters]
        self.reps = np.array(reps)
        gateways, region = [], []
        #: Per representative count r: the regions that elected it (a
        #: slice for all of them) and the rows of their slab.
        self.slabs = []
        for r in sorted(set(reps)):
            group = [k for k, count in enumerate(reps) if count == r]
            for slot in range(r):
                gateways += [fleets[k][slot] for k in group]
                region += group
            self.slabs.append((r, slice(None) if len(group) == len(reps)
                               else np.array(group),
                               slice(len(gateways) - r * len(group),
                                     len(gateways))))
        #: The representatives' rows are the first `probers`.
        self.probers = len(gateways)
        for k, fleet in enumerate(fleets):
            gateways += fleet[reps[k]:]
            region += [k] * (len(fleet) - reps[k])
        self.row_region = np.array(region, dtype=np.intp)
        row = {id(gateway): r for r, gateway in enumerate(gateways)}
        self._rows = [np.array([row[id(gateway)] for gateway in fleet],
                               dtype=np.intp) for fleet in fleets]
        self.bank = bank = EstimatorBank.stacked(
            [gateway.bank for gateway in gateways])
        #: Every gateway's open passive windows, in the bank's rows.
        self.passive = PassiveTracker.stacked(
            [gateway.passive for gateway in gateways])
        for r, gateway in enumerate(gateways):
            gateway.row = r
        #: Per slab, views of the bank: the median's input ``(where,
        #: latency, loss)`` and the vote's ``(r, where, degraded)``.
        links = self.shape[1]
        shapes = [(r, (rows.stop - rows.start) // r, links)
                  for r, __, rows in self.slabs]
        self._groups = [(where, bank.latency_ms[rows].reshape(shape),
                         bank.loss_rate[rows].reshape(shape))
                        for (__, where, rows), shape in zip(self.slabs, shapes)]
        self._votes = [(r, where, bank.degraded[rows].reshape(shape))
                       for (r, where, rows), shape in zip(self.slabs, shapes)]
        #: The representatives and their regions; the members' rows and
        #: theirs.
        self._probing = list(zip(gateways[:self.probers],
                                 region[:self.probers]))
        self._members = (slice(self.probers, len(gateways)),
                         self.row_region[self.probers:])
        self._stale = False

    def refresh(self) -> None:
        """Rebuild the block if a fleet changed since it was built."""
        if self._stale:
            self._rebuild()

    def book_passive(self, rows, links, packets: int, lost,
                     latency_ms) -> None:
        """Book the data packets a measurement tick's hops carried, in
        hop order: hop h crossed column ``links[h]`` of the block's run,
        forwarded by the gateway of row ``rows[h]`` (a `Gateway.row` of
        the built block), with `packets` packets of which ``lost[h]``
        were lost, at ``latency_ms[h]``.  A gateway measures only its
        own region's links: a hop on another region's link is ignored
        here, at booking."""
        rows, links = np.asarray(rows), np.asarray(links)
        per_region = self.shape[1]
        region, link = np.divmod(links, per_region)
        own = region == self.row_region[rows]
        self.passive.record((rows * per_region + link)[own], packets,
                            np.asarray(lost)[own],
                            np.asarray(latency_ms)[own])

    def flush_passive(self, now: float) -> None:
        """Close every gateway's passive windows and fold the
        sufficiently busy ones into the bank: one `PassiveTracker.flush`
        and one `EstimatorBank.ingest` for the whole block."""
        self.refresh()
        index, latency_ms, loss_rate = self.passive.flush(slice(None))
        if len(latency_ms):
            self.bank.ingest(index, now, latency_ms, loss_rate)

    def _slabs(self, part: np.ndarray) -> np.ndarray:
        """The representatives' rows of a ``(slots, regions, links)``
        array: each slab's slots of its regions, slab after slab."""
        links = self.shape[1]
        slabs = [part[:r, where].reshape(-1, links)
                 for r, where, __ in self.slabs]
        return slabs[0] if len(slabs) == 1 else np.concatenate(slabs)

    def _select(self, rows: slice, blacked: Optional[np.ndarray]):
        """The bank index of the probed links of `rows`, and the mask
        picking the same elements out of a ``(rows, links)`` array
        (``...`` when no link is blacked out: every one, in whole
        rows)."""
        if blacked is None:
            return rows, ...
        probed = ~blacked[self.row_region[rows]]
        row, link = np.nonzero(probed)
        return (rows.start + row, link), probed

    def probe(self, now: float) -> Tuple[ReportBatch, List[int]]:
        """One probing instant of every region: representatives probe
        every adjacent link of both tiers; their estimates are
        median-aggregated into group reports, and the group state is
        handed to every member gateway.

        Returns the reports, region by region in the block's order, and
        where each region's reports begin in them (plus the count,
        last).  A link under a probe blackout (one fault-injection
        query per instant) is a blind spot: its bursts are not taken in
        — no group state, no report — so its estimators, and the
        controller's view of it, age into staleness.
        """
        self.refresh()
        if _TEL.enabled and self._untraced:
            for probed in self.clusters:
                if probed in self._untraced:
                    probed.trace_election()
            self._untraced.clear()
        regions, links = self.shape
        blacked, fault_ids = self._blackouts(now)
        monitoring, bank, run = self.monitoring, self.bank, self.run

        # The k-th representative of a region measures probe slot k.
        latency, __, jitter, lost = self.noise.at(now)
        slots = self.slabs[-1][0]
        index, picked = self._select(slice(0, self.probers), blacked)
        measured = self._slabs((latency[run] * jitter[:slots, run]).reshape(
            slots, regions, links))[picked]
        lost = self._slabs(lost[:slots, run].reshape(
            slots, regions, links))[picked]
        burst_bytes(lost, monitoring)
        bank.ingest(index, now, measured, lost / monitoring.packets_per_burst)
        probed_links = ([links] * regions if blacked is None
                        else (links - blacked.sum(axis=1)).tolist())
        per_link = monitoring.packets_per_burst * monitoring.packet_bytes
        for gateway, region in self._probing:
            gateway.probe_bytes_sent += probed_links[region] * per_link

        # One median and one strict-majority vote per slab.
        degraded = np.zeros(self.shape, dtype=bool)
        for r, where, flagged in self._votes:
            if np.count_nonzero(flagged):
                degraded[where] = flagged.sum(axis=0) * 2 > r
        keep = None if blacked is None else ~blacked.ravel()
        reports = self._grouping.aggregate(self.src, self.dst, self.tier,
                                           self._groups, now, keep)

        rows, member = self._members
        if len(member):
            if blacked is None:
                group_latency = reports.latency_ms.reshape(self.shape)
                group_loss = reports.loss_rate.reshape(self.shape)
            else:
                group_latency = np.full(self.shape, np.nan)
                group_loss = np.full(self.shape, np.nan)
                group_latency.ravel()[keep] = reports.latency_ms
                group_loss.ravel()[keep] = reports.loss_rate
            index, picked = self._select(rows, blacked)
            bank.adopt(index, now, group_latency[member][picked],
                       group_loss[member][picked], degraded[member][picked])

        if _TEL.enabled:
            self._trace(now, reports, degraded, blacked, fault_ids)
        if blacked is None:
            return reports, self.bounds
        return reports, [0] + np.cumsum(probed_links).tolist()

    def _blackouts(self, now: float):
        """The ``(regions, links)`` mask of the block's blacked-out links
        at `now` (None for none) and the ids of the faults behind it."""
        if self.faults is None:
            return None, ()
        covered = self.faults.probe_blackout(self._grouping.codes, self.src,
                                             self.dst, self.tier, now)
        if not covered:
            return None, ()
        self.faults.counters.probes_blacked_out += len(covered)
        blacked = np.zeros(len(self.src), dtype=bool)
        blacked[list(covered)] = True
        fault_ids = {self.faults.fault_id(spec) for spec in covered.values()}
        return blacked.reshape(self.shape), sorted(fault_ids - {None})

    def _trace(self, now: float, reports: ReportBatch, degraded: np.ndarray,
               blacked: Optional[np.ndarray], fault_ids) -> None:
        """One `probe_round` event for the instant (and one
        `fault_probe_blackout` under a blackout), regions summed."""
        codes = self.codes
        if blacked is not None:
            degraded = degraded & ~blacked
        per_region = {}
        if np.count_nonzero(degraded):  # most instants flag nothing
            per_region = {code: flagged for code, flagged
                          in zip(codes, degraded.sum(axis=1).tolist())
                          if flagged}
        _ROUND_COUNTERS.fetch(_TEL.metrics)[0].inc()
        _TEL.event("probe_round", t=now, region="*",
                   representatives=self.probers, reports=len(reports),
                   degraded_links=sum(per_region.values()),
                   degraded=per_region)
        if blacked is not None:
            per_region = blacked.sum(axis=1)
            _BLACKOUT_COUNTERS.fetch(_TEL.metrics)[0].inc(
                int(per_region @ self.reps))
            links = per_region.tolist()
            hit = [k for k, count in enumerate(links) if count]
            _TEL.event("fault_probe_blackout", t=now,
                       region=codes[hit[0]] if len(hit) == 1 else "*",
                       links=sum(links),
                       regions={codes[k]: links[k] for k in hit},
                       fault_ids=fault_ids)
