"""The XRON gateway (event-mode object).

A gateway is one container of a region's `RegionCluster`: its
monitoring state (the probe bursts its cluster sends as it, plus passive
tracking, both folded into its `EstimatorBank`) covers the region's
adjacent links, it forwards from the region's `ForwardingTable` (rows
and reaction plans, shared with its cluster siblings), and it answers
"where does this stream go right now?" — switching to the premium backup
when its monitoring has flagged the normal outgoing link degraded
(§4.3), without asking the controller.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.estimator import EstimatorBank, LinkStateEstimator
from repro.dataplane.forwarding import ForwardDecision, ForwardingTable
from repro.dataplane.passive import PassiveTracker
from repro.obs import telemetry as _telemetry
from repro.obs.metrics import HotCounters
from repro.underlay.linkstate import LinkType

_TEL = _telemetry()
#: Counted on every forwarding decision (one per hop of every tracked
#: session and tick), and on every hold-down.
_DECISIONS = HotCounters("forward.decisions")
_HOLDDOWNS = HotCounters("resilience.holddown_suppressed")

#: Minimum seconds a stream stays on its backup after a failover when
#: hysteresis is armed, even if monitoring says the normal link is back.
FAILBACK_HOLDDOWN_S = 30.0


class Gateway:
    """One gateway container: monitoring + forwarding + local reaction."""

    def __init__(self, region: str, gateway_id: int,
                 links: Dict[Tuple[str, LinkType], int],
                 table: ForwardingTable,
                 monitoring: MonitoringConfig, reaction: ReactionConfig,
                 resilience=None, resilience_counters=None,
                 stale_after_s=None, fast_reaction: bool = True):
        """`links` (adjacent link -> position in the monitoring state)
        and `table` (the installed update) are the region's, handed over
        by the cluster.  Without `fast_reaction` (the XRON-Basic
        ablation) monitoring still detects degradations but forwarding
        never switches to a backup.  `resilience` is a
        `repro.resilience.ResilienceConfig` (or None): it arms
        degraded-mode forwarding (tables older than `stale_after_s`
        demote Internet entries to the premium floor) and failback
        hold-down.
        `resilience_counters` is the deployment-shared
        `ResilienceCounters` the gateway increments — shared so counts
        survive gateway churn (crashes, scale-downs)."""
        self.region = region
        self.gateway_id = int(gateway_id)
        self.links = links
        self.table = table
        self.fast_reaction = fast_reaction
        self.resilience = resilience
        self.resilience_counters = resilience_counters
        self.stale_after_s = stale_after_s
        #: This gateway's row of its cluster's monitoring block (set
        #: when the block is built).
        self.row = 0
        #: Open passive windows of the links, in their order; a row of
        #: the block's, like `bank`.
        self.passive = PassiveTracker((len(links),))
        #: Streams currently riding their backup path (trace edges only).
        self._on_backup: set = set()
        #: When each stream last failed over (failback hold-down base).
        self._failover_at: Dict[int, float] = {}
        #: Streams whose current hold-down episode was already traced.
        self._holddown_traced: set = set()
        #: Streams already counted as demoted under the current table.
        self._demoted: set = set()
        #: Monitoring state of the links, in their order.  The cluster
        #: makes it a row of its block (`EstimatorBank.stacked`).
        self.bank = EstimatorBank((len(links),), monitoring, reaction)
        self.probe_bytes_sent = 0

    # ------------------------------------------------------------ monitoring
    def estimator(self, dst: str, link_type: LinkType) -> LinkStateEstimator:
        return LinkStateEstimator(self.bank, self.links[(dst, link_type)])

    # ------------------------------------------------------------ forwarding
    def table_replaced(self) -> None:
        """An install was accepted: demotions are counted once per
        gateway, stream and table, so the ledger starts over."""
        self._demoted.clear()

    def forward(self, stream_id: int, now: float) -> Optional[ForwardDecision]:
        """Resolve a stream's current next hop, applying local reaction.

        Returns None for unknown streams (the caller drops or buffers).
        ``now`` (simulated time) stamps trace events and, with resilience
        armed, times the failback hold-down and the stale-table
        demotion.  The answer is one of the stream's compiled decisions
        (`ForwardingTable`), picked by its normal link's degraded flag.
        """
        table = self.table
        route = table.routes.get(stream_id)
        if route is None:
            return None
        normal, backup, demoted = route
        res = self.resilience
        if self.fast_reaction and self.bank.degraded[normal.link]:
            if res is not None and res.hysteresis_enabled:
                self._failover_at.setdefault(stream_id, now)
            if _TEL.enabled:
                _DECISIONS.fetch(_TEL.metrics)[0].inc()
                if stream_id not in self._on_backup:
                    self._on_backup.add(stream_id)
                    _TEL.counter("reaction.failovers").inc()
                    _TEL.event("failover", t=now, region=self.region,
                               gateway=self.gateway_id, stream=stream_id,
                               degraded_next_hop=normal.next_hop,
                               degraded_link=normal.link_type,
                               backup_next_hop=backup.next_hop,
                               planned=bool(table.plans.get(stream_id)))
            return backup
        if res is not None and res.hysteresis_enabled:
            failed_over = self._failover_at.get(stream_id)
            if failed_over is not None:
                if now - failed_over < FAILBACK_HOLDDOWN_S:
                    # Hold-down: monitoring says the normal link has
                    # recovered, but we just failed over — keep riding
                    # the backup so noisy loss cannot flap the path.
                    return self._held_down(stream_id, backup, now)
                del self._failover_at[stream_id]
                self._holddown_traced.discard(stream_id)
        if (res is not None and table.installed_at is not None
                and now - table.installed_at > self.stale_after_s
                and normal.link_type is LinkType.INTERNET):
            # Degraded mode: the table is stale past the threshold, so
            # the unstable Internet entry is demoted to the direct
            # premium link — the paper's stable-but-expensive floor.
            if stream_id not in self._demoted:
                self._demoted.add(stream_id)
                if self.resilience_counters is not None:
                    self.resilience_counters.degraded_demotions += 1
                if _TEL.enabled:
                    _TEL.counter("resilience.degraded_demotions").inc()
                    _TEL.event("resilience_degraded_mode", t=now,
                               region=self.region, gateway=self.gateway_id,
                               stream=stream_id, next_hop=normal.next_hop,
                               stale_s=now - table.installed_at,
                               version=table.installed_version)
            if _TEL.enabled:
                _DECISIONS.fetch(_TEL.metrics)[0].inc()
            return demoted
        if _TEL.enabled:
            _DECISIONS.fetch(_TEL.metrics)[0].inc()
            if stream_id in self._on_backup:
                self._on_backup.discard(stream_id)
                _TEL.counter("reaction.failbacks").inc()
                _TEL.event("failback", t=now, region=self.region,
                           gateway=self.gateway_id, stream=stream_id,
                           next_hop=normal.next_hop, link=normal.link_type)
        return normal

    def _held_down(self, stream_id: int, backup: ForwardDecision,
                   now: float) -> ForwardDecision:
        """The backup decision, served while failback is held down."""
        if self.resilience_counters is not None:
            self.resilience_counters.holddown_suppressed += 1
        if _TEL.enabled:
            _DECISIONS.fetch(_TEL.metrics)[0].inc()
            _HOLDDOWNS.fetch(_TEL.metrics)[0].inc()
            if stream_id not in self._holddown_traced:
                # Without the hold-down this would have been a failback;
                # trace once per hold-down episode, not per decision.
                self._holddown_traced.add(stream_id)
                _TEL.event("resilience_holddown", t=now, region=self.region,
                           gateway=self.gateway_id, stream=stream_id,
                           since_failover_s=now - self._failover_at[stream_id],
                           holddown_s=FAILBACK_HOLDDOWN_S)
        return backup
