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
links per region)``, region-major, each region's representatives
first), and a probing instant is a few dozen array operations over it
whatever the region count — one ingest for every representative, one
median per representative count, one hand-over to every member, one
`ReportBatch`.  The k-th representative of a region measures the k-th
probe slot's bursts (`BurstNoise`, drawn once per instant), which no
crash, scale-out or other region's probing can change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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
        self.table = ForwardingTable()
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
        representatives and `_fleet`, the order of the region's rows in
        the monitoring block (the representatives', then the others'),
        which is rebuilt before it is next used."""
        self._ids = sorted(self.gateways)
        self._elected = self._grouping.elect(self.region, self._ids)
        self._fleet = [self.gateways[gid] for gid in self._elected + [
            gid for gid in self._ids if gid not in self._elected]]
        self.block.fleet_changed()

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
        """Fold every gateway's passive samples into the estimators."""
        rows, links, latency_ms, loss_rate = [], [], [], []
        for row, gateway in enumerate(self._fleet):
            sampled = gateway.passive_samples(now)
            rows += [row] * len(sampled[0])
            links += sampled[0]
            latency_ms += sampled[1]
            loss_rate += sampled[2]
        if rows:
            bank, first = self.block.rows(self)
            bank.ingest((first + np.array(rows), np.array(links)), now,
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
        return sum(int(gateway.bank.degradation_count.sum())
                   for gateway in self.representatives())


class _Run:
    """Index vectors of a block's regions, for a probing instant over
    them (made again after every rebuild).  Regions are numbered in the
    block's order; every ``(regions, links)`` array is one region per
    row."""

    def __init__(self, block: "MonitoringBlock"):
        noise = block.noise
        spans = [noise.span(cluster.region) for cluster in block.clusters]
        #: Each region's links in `noise` (the run's report order).
        self.hop = np.array([np.arange(s.start, s.stop) for s in spans],
                            dtype=np.intp)
        self.hops = [noise.hops[h] for h in self.hop.ravel().tolist()]
        #: (src, dst, tier) per link, for the reports.
        self.tier, self.src, self.dst = (axis[self.hop] for axis in noise.index)
        rows = np.arange(block.first[-1])
        region = block.row_region
        slot = block.row_slot
        self.reps = block.reps
        probing = slot < self.reps[region]
        self.rep_rows, self.rep_region = rows[probing], region[probing]
        self.rep_slot = slot[probing, None]
        self.rep_hop = self.hop[self.rep_region]
        self.member_rows, self.member_region = rows[~probing], region[~probing]
        self.rep_gateways = list(zip(
            (block.gateways[row] for row in self.rep_rows.tolist()),
            self.rep_region.tolist()))
        #: Per representative count r: the regions that elected r and
        #: their representatives' rows, ``(r, regions)``.
        self.groups = []
        for r in np.unique(self.reps).tolist():
            regions = np.flatnonzero(self.reps == r)
            self.groups.append((r, regions, block.first[regions]
                                + np.arange(r)[:, None]))

    @staticmethod
    def select(rows: np.ndarray, region: np.ndarray,
               blacked: Optional[np.ndarray]):
        """The bank index of the probed links of `rows` (the regions
        they belong to are `region`), and the mask picking the same
        elements out of a ``(len(rows), links)`` array (``...`` when no
        link is blacked out: every one, in whole rows)."""
        if blacked is None:
            return rows, ...
        probed = ~blacked[region]
        row, link = np.nonzero(probed)
        return (rows[row], link), probed


class MonitoringBlock:
    """The monitoring state of every gateway of some region clusters —
    one `EstimatorBank` of ``(gateway rows, 2(N - 1) links)`` — and the
    probing instant over it.

    Rows are region-major in `clusters`' order (the order of their runs
    in the clusters' shared `BurstNoise`), each region's rows in its
    `_fleet` order: the representatives first.  `row_region` and
    `row_slot` say whose a row is and its position there (a
    representative's probe slot).  Every gateway's `bank` is a view of
    its row; a fleet change of any cluster marks the block stale, and
    the next use rebuilds it from the gateways' banks
    (`EstimatorBank.stacked`) — a gateway that joined in between
    brought its own, and a departed one's row is dropped.
    """

    def __init__(self, clusters: Sequence[RegionCluster]):
        self.clusters = list(clusters)
        self.noise = self.clusters[0].noise
        self.monitoring = self.clusters[0].monitoring
        #: Fault-injection seam: a `repro.faults.FaultInjector` (or None).
        self.faults = None
        self._grouping = ProbingGroupManager(
            self.noise.underlay.codes, self.monitoring.representatives)
        self._position = {}
        for k, cluster in enumerate(self.clusters):
            cluster.block = self
            self._position[cluster.region] = k
        self._stale = True
        self._run: Optional[_Run] = None

    def fleet_changed(self) -> None:
        """A cluster's fleet changed: rebuild before the next use."""
        self._stale = True

    def _rebuild(self) -> None:
        fleets = [cluster._fleet for cluster in self.clusters]
        sizes = np.array([len(fleet) for fleet in fleets])
        #: First row of each region (and the row count, last).
        self.first = np.concatenate(([0], np.cumsum(sizes)))
        self.reps = np.array([len(cluster._elected)
                              for cluster in self.clusters])
        self.row_region = np.repeat(np.arange(len(fleets)), sizes)
        self.row_slot = np.arange(self.first[-1]) - self.first[self.row_region]
        self.gateways = [gateway for fleet in fleets for gateway in fleet]
        self.bank = EstimatorBank.stacked(
            [gateway.bank for gateway in self.gateways])
        self._run = None
        self._stale = False

    def rows(self, cluster: RegionCluster) -> Tuple[EstimatorBank, int]:
        """The block's bank, and the row where `cluster`'s rows begin."""
        if self._stale:
            self._rebuild()
        return self.bank, int(self.first[self._position[cluster.region]])

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
        if self._stale:
            self._rebuild()
        run = self._run
        if run is None:
            run = self._run = _Run(self)
        if _TEL.enabled:
            for probed in self.clusters:
                probed.trace_election()
        regions, links = run.hop.shape
        blacked, fault_ids = self._blackouts(run, now)
        monitoring, bank = self.monitoring, self.bank

        latency, __, jitter, lost = self.noise.at(now)
        index, picked = run.select(run.rep_rows, run.rep_region, blacked)
        lost = lost[run.rep_slot, run.rep_hop][picked]
        burst_bytes(lost, monitoring)
        bank.ingest(index, now,
                    (latency[run.rep_hop] * jitter[run.rep_slot,
                                                   run.rep_hop])[picked],
                    lost / monitoring.packets_per_burst)
        probed_links = ([links] * regions if blacked is None
                        else (links - blacked.sum(axis=1)).tolist())
        per_link = monitoring.packets_per_burst * monitoring.packet_bytes
        for gateway, region in run.rep_gateways:
            gateway.probe_bytes_sent += probed_links[region] * per_link

        # One median and one strict-majority vote per representative
        # count: a region that elected fewer is its own group.
        groups, degraded = [], np.zeros((regions, links), dtype=bool)
        for r, group, rows in run.groups:
            groups.append((group, bank.latency_ms[rows], bank.loss_rate[rows]))
            flagged = bank.degraded[rows]
            if flagged.any():
                degraded[group] = flagged.sum(axis=0) * 2 > r
        keep = None if blacked is None else ~blacked.ravel()
        reports = self._grouping.aggregate(run.src, run.dst, run.tier,
                                           groups, now, keep)

        if len(run.member_rows):
            if blacked is None:
                group_latency = reports.latency_ms.reshape(regions, links)
                group_loss = reports.loss_rate.reshape(regions, links)
            else:
                group_latency = np.full((regions, links), np.nan)
                group_loss = np.full((regions, links), np.nan)
                group_latency.ravel()[keep] = reports.latency_ms
                group_loss.ravel()[keep] = reports.loss_rate
            index, picked = run.select(run.member_rows, run.member_region,
                                       blacked)
            member = run.member_region
            bank.adopt(index, now, group_latency[member][picked],
                       group_loss[member][picked], degraded[member][picked])

        if _TEL.enabled:
            self._trace(run, now, reports, degraded, blacked, fault_ids)
        return reports, [0] + np.cumsum(probed_links).tolist()

    def _blackouts(self, run: _Run, now: float):
        """The ``(regions, links)`` mask of the run's blacked-out links
        at `now` (None for none) and the ids of the faults behind it."""
        if self.faults is None:
            return None, ()
        covered = self.faults.probe_blackout(run.hops, now)
        if not covered:
            return None, ()
        self.faults.counters.probes_blacked_out += len(covered)
        blacked = np.zeros(run.hop.size, dtype=bool)
        blacked[list(covered)] = True
        fault_ids = {self.faults.fault_id(spec) for spec in covered.values()}
        return blacked.reshape(run.hop.shape), sorted(fault_ids - {None})

    def _trace(self, run: _Run, now: float, reports: ReportBatch,
               degraded: np.ndarray, blacked: Optional[np.ndarray],
               fault_ids) -> None:
        """One `probe_round` event for the instant (and one
        `fault_probe_blackout` under a blackout), regions summed."""
        codes = [cluster.region for cluster in self.clusters]
        if blacked is not None:
            degraded = degraded & ~blacked
        flagged = np.count_nonzero(degraded, axis=1)
        _TEL.counter("cluster.probe_rounds").inc()
        _TEL.event("probe_round", t=now, region="*",
                   representatives=len(run.rep_rows), reports=len(reports),
                   degraded_links=int(flagged.sum()),
                   degraded={codes[k]: int(flagged[k])
                             for k in np.flatnonzero(flagged).tolist()})
        if blacked is not None:
            per_region = blacked.sum(axis=1)
            _TEL.counter("fault.probes_blacked_out").inc(
                int(per_region @ run.reps))
            hit = np.flatnonzero(per_region).tolist()
            _TEL.event("fault_probe_blackout", t=now,
                       region=codes[hit[0]] if len(hit) == 1 else "*",
                       links=int(per_region.sum()),
                       regions={codes[k]: int(per_region[k]) for k in hit},
                       fault_ids=fault_ids)
