"""Tests for region clusters and group-based probing distribution."""

import numpy as np
import pytest

from repro.dataplane.cluster import MonitoringBlock, RegionCluster
from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.underlay.config import UnderlayConfig
from repro.underlay.events import DegradationEvent
from repro.underlay.linkstate import LinkType
from repro.underlay.scenarios import inject_events, quiet_link
from repro.underlay.topology import build_underlay
from tests.faults.report_seam_oracle import report_at, reports_of

I = LinkType.INTERNET
P = LinkType.PREMIUM


@pytest.fixture()
def underlay(small_regions):
    u = build_underlay(small_regions, UnderlayConfig(horizon_s=7200.0),
                       seed=17)
    for (a, b) in u.pairs:
        for lt in (I, P):
            quiet_link(u, a, b, lt)
    return u


@pytest.fixture()
def cluster(underlay):
    return RegionCluster("HGH", underlay, initial_gateways=4,
                         monitoring=MonitoringConfig(representatives=2),
                         reaction=ReactionConfig(trigger_bursts=2,
                                                 recover_bursts=4))


def _estimate(gateway, dst="SIN", link_type=I):
    """A gateway's (latency, loss) estimate of one adjacent link."""
    view = gateway.estimator(dst, link_type)
    return view.latency_ms, view.loss_rate


def _flag_degraded(gateway, dst, link_type):
    """Set a gateway's own degradation verdict for one adjacent link."""
    gateway.bank.degraded[gateway.links[(dst, link_type)]] = True


class TestFleet:
    def test_initial_size(self, cluster):
        assert cluster.size == 4

    def test_scale_up_adds_gateways(self, cluster):
        cluster.scale_to(6)
        assert cluster.size == 6

    def test_scale_down_removes_newest(self, cluster):
        cluster.scale_to(2)
        assert sorted(cluster.gateways) == [0, 1]

    def test_cannot_scale_to_zero(self, cluster):
        with pytest.raises(ValueError):
            cluster.scale_to(0)

    def test_new_gateways_inherit_tables(self, cluster):
        cluster.install({1: ("SIN", I)}, {1: ("SIN",)})
        cluster.scale_to(6)
        newest = cluster.gateways[max(cluster.gateways)]
        assert newest.table is cluster.table
        assert newest.forward(1, 0.0) == cluster.gateways[0].forward(1, 0.0)
        assert newest.forward(1, 0.0).next_hop == "SIN"

    def test_representatives_are_stable_lowest_ids(self, cluster):
        reps = cluster.representatives()
        assert [g.gateway_id for g in reps] == [0, 1]
        cluster.scale_to(8)
        assert [g.gateway_id for g in cluster.representatives()] == [0, 1]

    def test_needs_at_least_one_gateway(self, underlay):
        with pytest.raises(ValueError):
            RegionCluster("HGH", underlay, initial_gateways=0)

    def test_new_gateways_inherit_reaction_plans(self, cluster):
        """Regression: a scaled-up gateway must hold the region's
        reaction plans, not only its forwarding rows — without plans it
        cannot fast-react until the next control epoch."""
        cluster.install({1: ("SIN", I)}, {1: ("FRA",)})
        cluster.scale_to(6)
        newest = cluster.gateways[max(cluster.gateways)]
        assert newest.table.plans == {1: ("FRA",)}
        _flag_degraded(newest, "SIN", I)
        decision = newest.forward(1, 0.0)
        assert decision.via_backup and decision.next_hop == "FRA"

    def test_crash_removes_lowest_ids_first(self, cluster):
        victims = cluster.crash_gateways(2, now=0.0)
        assert victims == [0, 1]
        assert sorted(cluster.gateways) == [2, 3]

    def test_crash_always_spares_one(self, cluster):
        victims = cluster.crash_gateways(99, now=0.0)
        assert len(victims) == 3
        assert cluster.size == 1

    def test_crash_normalizes_round_robin_cursor(self, cluster):
        """`crash_gateways` sparing one survivor re-points the
        round-robin cursor into the shrunken fleet."""
        cluster.install({1: ("SIN", I)}, {})
        for __ in range(7):  # advance the cursor beyond the post-crash size
            cluster.resolve(1, 0.0)
        cluster.crash_gateways(3, now=0.0)
        assert 0 <= cluster._rr_index < cluster.size
        survivor = next(iter(cluster.gateways.values()))
        resolved = cluster.resolve(1, 0.0)
        assert resolved is not None and resolved[0] is survivor

    def test_restart_after_crash_continues_from_the_reduced_cursor(
            self, cluster):
        """Seven turns over gateways 0-3, a crash of 0 and 1, and a
        restart of two (4 and 5): the turn goes on at 7 mod 2 = 1 of
        [2, 3, 4, 5], gateway 3, where an unreduced cursor (7 mod 4)
        would pick gateway 5."""
        cluster.install({1: ("SIN", I)}, {})
        for __ in range(7):
            cluster.resolve(1, 0.0)
        cluster.crash_gateways(2, now=0.0)
        assert cluster.restore_gateways(2, now=30.0) == [4, 5]
        assert [cluster.next_gateway().gateway_id
                for __ in range(5)] == [3, 4, 5, 2, 3]

    def test_restore_seeds_tables_and_plans(self, cluster):
        cluster.install({1: ("SIN", I)}, {1: ("FRA",)})
        cluster.crash_gateways(2, now=0.0)
        started = cluster.restore_gateways(2, now=30.0)
        assert len(started) == 2
        for gid in started:
            gateway = cluster.gateways[gid]
            assert gateway.table is cluster.table
            assert gateway.forward(1, 0.0).next_hop == "SIN"
            _flag_degraded(gateway, "SIN", I)
            decision = gateway.forward(1, 0.0)
            assert decision.via_backup and decision.next_hop == "FRA"


class TestFleetOrderIsKept:
    """The sorted ids, the elected representatives and the monitoring
    block follow every fleet change; nothing is recomputed per call."""

    def test_round_robin_and_representatives_follow_the_fleet(self, cluster):
        cluster.install({1: ("SIN", I)}, {})

        def deciders():
            return sorted({cluster.resolve(1, 0.0)[0].gateway_id
                           for __ in range(2 * cluster.size)})

        def reps():
            return [g.gateway_id for g in cluster.representatives()]

        assert (deciders(), reps()) == ([0, 1, 2, 3], [0, 1])
        cluster.crash_gateways(1, 0.0)
        assert (deciders(), reps()) == ([1, 2, 3], [1, 2])
        started = cluster.restore_gateways(2, 0.0)
        assert (deciders(), reps()) == ([1, 2, 3] + started, [1, 2])
        cluster.scale_to(2)
        assert (deciders(), reps()) == ([1, 2], [1, 2])
        cluster.scale_to(1)
        assert (deciders(), reps()) == ([1], [1])

    def test_estimates_survive_fleet_changes(self, cluster):
        """Gateways keep their monitoring state when the block is
        rebuilt around them, and an estimator handed out before a fleet
        change keeps reading its gateway's state, whoever writes it."""
        cluster.probe_round(0.0)
        held = cluster.gateways[2].estimator("SIN", I)
        before = {gid: _estimate(g) for gid, g in cluster.gateways.items()}
        cluster.crash_gateways(1, 0.0)
        cluster.scale_to(6)
        for gid, gateway in cluster.gateways.items():
            if gid in before:
                assert _estimate(gateway) == before[gid]
            else:
                assert _estimate(gateway) == (None, None)
        cluster.probe_round(0.4)  # gateway 2 is a representative now
        assert held.last_update == 0.4
        assert (held.latency_ms, held.loss_rate) == _estimate(
            cluster.gateways[2]) != before[2]
        gateway = cluster.gateways[2]
        gateway.bank.adopt(gateway.links[("SIN", I)], 1.0, 77.0, 0.5,
                           np.bool_(True))
        assert gateway.estimator("SIN", I).degraded and held.degraded
        assert (held.latency_ms, held.loss_rate) == (77.0, 0.5)

    def test_election_is_traced_at_the_first_round_after_a_change(
            self, cluster):
        from repro import obs
        with obs.capture() as hub:
            def elections():
                return [(e["representatives"], e["gateways"])
                        for e in hub.events_json()
                        if e["kind"] == "rep_election"]
            assert elections() == []
            cluster.probe_round(0.0)
            assert elections() == [([0, 1], 4)]
            cluster.probe_round(0.4)
            cluster.scale_to(6)  # same representatives: nothing to trace
            cluster.probe_round(0.8)
            assert elections() == [([0, 1], 4)]
            cluster.crash_gateways(1, 0.0)
            assert elections() == [([0, 1], 4)]  # not at the change...
            cluster.probe_round(1.2)
            assert elections() == [([0, 1], 4), ([1, 2], 5)]  # ...after it
            assert hub.metrics.snapshot()["grouping.elections"]["value"] == 2


class TestGroupProbing:
    def test_probe_round_reports_all_links(self, cluster, underlay):
        reports = cluster.probe_round(0.0)
        assert len(reports) == (len(underlay.codes) - 1) * 2

    def test_only_representatives_send_probes(self, cluster):
        cluster.probe_round(0.0)
        bytes_by_gateway = {gid: g.probe_bytes_sent
                            for gid, g in cluster.gateways.items()}
        assert bytes_by_gateway[0] > 0 and bytes_by_gateway[1] > 0
        assert bytes_by_gateway[2] == 0 and bytes_by_gateway[3] == 0

    def test_group_state_distributed_to_members(self, cluster):
        cluster.probe_round(0.0)
        member = cluster.gateways[3]
        lat, loss = _estimate(member)
        assert lat > 0  # adopted state despite never probing

    def test_degradation_verdict_distributed(self, cluster, underlay):
        inject_events(underlay, "HGH", "SIN", I,
                      [DegradationEvent(5.0, 60.0, 5000.0, 0.3)])
        for k in range(12):
            cluster.probe_round(9.0 + k * 0.4)
        # Every gateway (including non-representatives) must now react.
        for gateway in cluster.gateways.values():
            assert gateway.estimator("SIN", I).degraded

    def test_probe_round_returns_a_report_batch(self, cluster, underlay):
        reports = cluster.probe_round(0.0)
        assert reports and len(reports) == 6
        listed = reports_of(reports)
        assert listed[4] == report_at(reports, 4)
        assert {r.src for r in listed} == {"HGH"}
        # Destinations in the underlay's order, Internet before premium.
        assert [(r.dst, r.link_type) for r in listed] == [
            (dst, lt) for dst in underlay.codes if dst != "HGH"
            for lt in (I, P)]
        assert all(r.reported_at == 0.0 and r.latency_ms > 0
                   and 0.0 <= r.loss_rate <= 1.0 for r in listed)

    def test_reports_reflect_median_of_reps(self, cluster):
        reports = {(r.dst, r.link_type): r
                   for r in reports_of(cluster.probe_round(0.0))}
        report = reports[("SIN", I)]
        reps = cluster.representatives()
        lats = sorted(_estimate(rep)[0] for rep in reps)
        assert lats[0] <= report.latency_ms <= lats[-1]


class TestForwarding:
    def test_round_robin_across_gateways(self, cluster):
        cluster.install({1: ("SIN", I)}, {})
        resolved = [cluster.resolve(1, 0.0) for __ in range(8)]
        assert all(r is not None and r[1].next_hop == "SIN"
                   for r in resolved)

    def test_unknown_stream(self, cluster):
        assert cluster.resolve(99, 0.0) is None

    def test_resolve_reports_the_deciding_gateway(self, cluster):
        """Regression: passive samples must be booked on the gateway
        that made the round-robin decision, so `resolve` has to hand
        back every gateway in turn — not always the lowest id."""
        cluster.install({1: ("SIN", I)}, {})
        deciders = {cluster.resolve(1, 0.0)[0].gateway_id
                    for __ in range(cluster.size)}
        assert deciders == set(cluster.gateways)

    def test_resolve_and_forward_agree(self, cluster):
        cluster.install({1: ("SIN", I)}, {})
        gateway, decision = cluster.resolve(1, 0.0)
        assert decision.next_hop == "SIN"
        assert gateway.gateway_id in cluster.gateways

    def test_cluster_reaction_via_any_gateway(self, cluster, underlay):
        cluster.install({1: ("SIN", I)}, {1: ("SIN",)})
        inject_events(underlay, "HGH", "SIN", I,
                      [DegradationEvent(5.0, 60.0, 5000.0, 0.3)])
        for k in range(12):
            cluster.probe_round(9.0 + k * 0.4)
        for __ in range(cluster.size):
            __, decision = cluster.resolve(1, 0.0)
            assert decision.via_backup
            assert decision.link_type is P


class TestTelemetry:
    def test_probe_bytes_counted(self, cluster):
        cluster.probe_round(0.0)
        assert cluster.probe_bytes() > 0

    def test_detections_counted(self, cluster, underlay):
        assert cluster.degradation_detections() == 0
        inject_events(underlay, "HGH", "SIN", I,
                      [DegradationEvent(5.0, 60.0, 5000.0, 0.3)])
        for k in range(12):
            cluster.probe_round(9.0 + k * 0.4)
        assert cluster.degradation_detections() >= 1


def test_a_block_is_one_run_of_its_noise(underlay, cluster):
    """A block's bursts and reports are its noise's columns as they lie:
    its regions must be a run of the noise's, in their order."""
    codes = underlay.codes
    clusters = [RegionCluster(code, underlay, noise=cluster.noise)
                for code in codes]
    assert MonitoringBlock(clusters[1:3]).shape == (2, 2 * (len(codes) - 1))
    for picked in (clusters[::-1], [clusters[0], clusters[2]]):
        with pytest.raises(ValueError, match="one run"):
            MonitoringBlock(picked)
