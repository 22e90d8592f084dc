"""Tests for the event-mode gateway, as the one member of its region's
cluster (a gateway probes only as a cluster member)."""

import pytest

from repro.dataplane.cluster import RegionCluster
from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.underlay.events import DegradationEvent
from repro.underlay.linkstate import LinkType
from repro.underlay.scenarios import inject_events, quiet_link
from repro.underlay.config import UnderlayConfig
from repro.underlay.topology import build_underlay

I = LinkType.INTERNET
P = LinkType.PREMIUM


@pytest.fixture()
def underlay(small_regions):
    u = build_underlay(small_regions, UnderlayConfig(horizon_s=7200.0),
                       seed=11)
    # Quiet everything so detection tests are deterministic; individual
    # tests inject their own degradations.
    for (a, b) in u.pairs:
        for lt in (I, P):
            quiet_link(u, a, b, lt)
    return u


@pytest.fixture()
def cluster(underlay):
    lone = RegionCluster("HGH", underlay, initial_gateways=1,
                         reaction=ReactionConfig(trigger_bursts=2,
                                                 recover_bursts=4))
    lone.install({1: ("SIN", I)}, {1: ("SIN",)})
    return lone


@pytest.fixture()
def gateway(cluster):
    return cluster.gateways[0]


def test_forward_normal_path(gateway):
    decision = gateway.forward(1)
    assert decision.next_hop == "SIN"
    assert decision.link_type is I
    assert not decision.via_backup


def test_forward_unknown_stream(gateway):
    assert gateway.forward(42) is None


def test_reaction_switches_to_backup(cluster, gateway, underlay):
    inject_events(underlay, "HGH", "SIN", I,
                  [DegradationEvent(10.0, 60.0, 5000.0, 0.3)])
    # Probe through the degradation: two bad bursts trigger.
    for k in range(10):
        cluster.probe_round(14.0 + k * 0.4)
    assert gateway.link_degraded("SIN", I)
    decision = gateway.forward(1)
    assert decision.via_backup
    assert decision.link_type is P
    assert decision.next_hop == "SIN"


def test_reaction_reverts_after_recovery(cluster, gateway, underlay):
    inject_events(underlay, "HGH", "SIN", I,
                  [DegradationEvent(10.0, 20.0, 5000.0, 0.3)])
    for k in range(20):
        cluster.probe_round(14.0 + k * 0.4)
    assert gateway.link_degraded("SIN", I)
    # Probe well after the event: the loss EWMA must decay below the
    # threshold first, then the recovery hysteresis clears the flag.
    for k in range(25):
        cluster.probe_round(40.0 + k * 0.4)
    assert not gateway.link_degraded("SIN", I)
    assert not gateway.forward(1).via_backup


def test_reaction_without_plan_uses_direct_premium(cluster, gateway, underlay):
    cluster.install({1: ("SIN", I)}, {})  # no plans pushed
    inject_events(underlay, "HGH", "SIN", I,
                  [DegradationEvent(10.0, 60.0, 5000.0, 0.3)])
    for k in range(10):
        cluster.probe_round(14.0 + k * 0.4)
    decision = gateway.forward(1)
    assert decision.via_backup
    assert decision.next_hop == "SIN"
    assert decision.link_type is P


def test_multi_hop_plan_first_relay(cluster, gateway, underlay):
    cluster.install({1: ("SIN", I)}, {1: ("FRA", "SIN")})
    inject_events(underlay, "HGH", "SIN", I,
                  [DegradationEvent(10.0, 60.0, 5000.0, 0.3)])
    for k in range(10):
        cluster.probe_round(14.0 + k * 0.4)
    decision = gateway.forward(1)
    assert decision.next_hop == "FRA"


def test_passive_tracking_flush(cluster, gateway):
    gateway.passive.record(("HGH", "SIN", I), 100, 1, 80.0)
    cluster.flush_passive(5.0)
    est = gateway.estimator("SIN", I)
    assert est.last_update == 5.0
    assert est.loss_rate == pytest.approx(0.01)


def test_passive_ignores_other_regions_links(cluster, gateway):
    gateway.passive.record(("SIN", "FRA", I), 100, 1, 80.0)
    cluster.flush_passive(5.0)
    assert gateway.estimator("FRA", I).latency_ms is None


def test_probe_accounting(cluster, gateway):
    cluster.probe_round(0.0)
    cluster.probe_round(0.4)
    assert gateway.probe_bytes_sent == 2 * 6 * 15 * 1500


def test_burst_bytes_follow_the_configured_packet_size(underlay):
    lone = RegionCluster("HGH", underlay, initial_gateways=1,
                         monitoring=MonitoringConfig(packet_bytes=1200))
    for t in (0.0, 0.4):
        lone.probe_round(t)
    assert lone.gateways[0].probe_bytes_sent == lone.probe_bytes() \
        == 2 * 6 * 15 * 1200
