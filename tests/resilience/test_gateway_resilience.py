"""Gateway-level resilience: versioned installs, degraded mode, hold-down
(each gateway the one member of its region's cluster)."""

import pytest

from repro.dataplane.cluster import RegionCluster
from repro.dataplane.config import ReactionConfig
from repro.resilience import ResilienceCounters, resilience
from repro.resilience.install import STALENESS_EPOCHS
from repro.underlay.config import UnderlayConfig
from repro.underlay.events import DegradationEvent
from repro.underlay.linkstate import LinkType
from repro.underlay.scenarios import inject_events, quiet_link
from repro.underlay.topology import build_underlay

I = LinkType.INTERNET
P = LinkType.PREMIUM

#: Staleness threshold = 3 epochs x 60 s; hold-down 30 s.  The epoch is
#: kept much longer than the hold-down so the hold-down tests never
#: trip the staleness demotion by accident.
EPOCH_S = 60.0


@pytest.fixture()
def underlay(small_regions):
    u = build_underlay(small_regions, UnderlayConfig(horizon_s=7200.0),
                       seed=11)
    for (a, b) in u.pairs:
        for lt in (I, P):
            quiet_link(u, a, b, lt)
    return u


@pytest.fixture()
def counters():
    return ResilienceCounters()


def lone_cluster(underlay, counters, config, reaction=None):
    """A one-gateway HGH cluster armed with `config`, its stale-table
    threshold derived from `EPOCH_S` as the layer derives it."""
    cluster = RegionCluster("HGH", underlay, initial_gateways=1,
                            reaction=reaction)
    cluster.arm_resilience(config, counters, STALENESS_EPOCHS * EPOCH_S)
    return cluster


@pytest.fixture()
def cluster(underlay, counters):
    lone = lone_cluster(underlay, counters, resilience(), ReactionConfig(
        trigger_bursts=2, recover_bursts=4))
    lone.install({1: ("SIN", I)}, {1: ("SIN",)}, version=1, now=0.0)
    return lone


@pytest.fixture()
def gateway(cluster):
    return cluster.gateways[0]


def _degrade(cluster, underlay, onset=10.0, duration=60.0):
    inject_events(underlay, "HGH", "SIN", I,
                  [DegradationEvent(onset, duration, 5000.0, 0.3)])
    for k in range(10):
        cluster.probe_round(onset + 4.0 + k * 0.4)


class TestVersionedInstalls:
    def test_newer_version_accepted(self, cluster, gateway):
        assert cluster.install({1: ("FRA", I)}, {}, version=2, now=5.0)
        assert gateway.table.installed_version == 2
        assert gateway.table.installed_at == 5.0

    def test_out_of_order_install_discarded(self, cluster, gateway):
        cluster.install({1: ("FRA", I)}, {}, version=3, now=5.0)
        assert not cluster.install({1: ("SIN", I)}, {1: ("SIN",)},
                                   version=2, now=6.0)
        assert gateway.table.rows.get(1) == ("FRA", I)
        assert gateway.table.installed_version == 3

    def test_unversioned_install_keeps_legacy_behavior(self, cluster,
                                                       gateway):
        assert cluster.install({1: ("FRA", I)}, {})
        assert gateway.table.installed_version == 1  # untouched
        assert gateway.table.rows.get(1) == ("FRA", I)


class TestDegradedMode:
    def test_fresh_table_forwards_normally(self, gateway):
        decision = gateway.forward(1, now=EPOCH_S)
        assert decision.link_type is I
        assert not decision.degraded_mode

    def test_stale_table_demotes_internet_to_premium(self, gateway, counters):
        decision = gateway.forward(1, now=4 * EPOCH_S)  # > 3 missed epochs
        assert decision.degraded_mode
        assert decision.link_type is P
        assert decision.next_hop == "SIN"
        assert not decision.via_backup
        assert counters.degraded_demotions == 1

    def test_demotion_counted_once_per_stream_per_install(self, cluster,
                                                          gateway, counters):
        gateway.forward(1, now=4 * EPOCH_S)
        gateway.forward(1, now=4 * EPOCH_S + 1.0)
        assert counters.degraded_demotions == 1
        cluster.install({1: ("SIN", I)}, {}, version=2, now=5 * EPOCH_S)
        gateway.forward(1, now=9 * EPOCH_S)
        assert counters.degraded_demotions == 2

    def test_premium_entries_not_demoted(self, underlay, counters):
        lone = lone_cluster(underlay, counters, resilience())
        lone.install({1: ("SIN", P)}, {}, version=1, now=0.0)
        decision = lone.gateways[0].forward(1, now=10 * EPOCH_S)
        assert not decision.degraded_mode
        assert counters.degraded_demotions == 0

    def test_fresh_install_clears_demotions(self, cluster, gateway):
        assert gateway.forward(1, now=4 * EPOCH_S).degraded_mode
        cluster.install({1: ("SIN", I)}, {}, version=2,
                        now=4 * EPOCH_S + 1.0)
        assert not gateway.forward(1, now=4 * EPOCH_S + 2.0).degraded_mode


class TestHolddown:
    def test_failback_held_down_after_failover(self, cluster, gateway,
                                               underlay, counters):
        _degrade(cluster, underlay, onset=10.0, duration=20.0)
        assert gateway.forward(1, now=15.0).via_backup
        # Recover the link estimator: probe well past the event.
        for k in range(20):
            cluster.probe_round(35.0 + k * 0.4)
        assert not gateway.link_degraded("SIN", I)
        # Inside the 30 s hold-down window: still on the backup.
        held = gateway.forward(1, now=44.0)
        assert held.via_backup
        assert held.link_type is P
        assert counters.holddown_suppressed >= 1
        # After the hold-down expires: failback to the normal path.
        released = gateway.forward(1, now=15.0 + 31.0)
        assert not released.via_backup
        assert released.link_type is I

    def test_no_holddown_without_hysteresis(self, underlay, counters):
        from dataclasses import replace
        lone = lone_cluster(
            underlay, counters,
            replace(resilience(), hysteresis_enabled=False),
            ReactionConfig(trigger_bursts=2, recover_bursts=4))
        lone.install({1: ("SIN", I)}, {1: ("SIN",)}, version=1, now=0.0)
        gw = lone.gateways[0]
        _degrade(lone, underlay, onset=10.0, duration=20.0)
        assert gw.forward(1, now=15.0).via_backup
        for k in range(20):
            lone.probe_round(35.0 + k * 0.4)
        # Monitoring recovered -> immediate failback, no suppression.
        assert not gw.forward(1, now=44.0).via_backup
        assert counters.holddown_suppressed == 0
