"""Tests for the event-mode gateway."""

import numpy as np
import pytest

from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.gateway import Gateway
from repro.dataplane.probing import ActiveProber
from repro.underlay.events import DegradationEvent
from repro.underlay.linkstate import LinkType
from repro.underlay.scenarios import inject_events, quiet_link
from repro.underlay.config import PremiumLinkConfig, UnderlayConfig
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
def gateway(underlay):
    gw = Gateway("HGH", 0, underlay,
                 reaction=ReactionConfig(trigger_bursts=2, recover_bursts=4),
                 rng=np.random.default_rng(0))
    gw.install_tables({1: ("SIN", I)}, {1: ("SIN",)})
    return gw


def test_probe_all_covers_both_tiers(gateway, underlay):
    bursts = gateway.probe_all(0.0)
    assert len(bursts) == (len(underlay.codes) - 1) * 2


def test_forward_normal_path(gateway):
    decision = gateway.forward(1)
    assert decision.next_hop == "SIN"
    assert decision.link_type is I
    assert not decision.via_backup


def test_forward_unknown_stream(gateway):
    assert gateway.forward(42) is None


def test_reaction_switches_to_backup(gateway, underlay):
    inject_events(underlay, "HGH", "SIN", I,
                  [DegradationEvent(10.0, 60.0, 5000.0, 0.3)])
    # Probe through the degradation: two bad bursts trigger.
    for k in range(10):
        gateway.probe_all(14.0 + k * 0.4)
    assert gateway.link_degraded("SIN", I)
    decision = gateway.forward(1)
    assert decision.via_backup
    assert decision.link_type is P
    assert decision.next_hop == "SIN"


def test_reaction_reverts_after_recovery(gateway, underlay):
    inject_events(underlay, "HGH", "SIN", I,
                  [DegradationEvent(10.0, 20.0, 5000.0, 0.3)])
    for k in range(20):
        gateway.probe_all(14.0 + k * 0.4)
    assert gateway.link_degraded("SIN", I)
    # Probe well after the event: the loss EWMA must decay below the
    # threshold first, then the recovery hysteresis clears the flag.
    for k in range(25):
        gateway.probe_all(40.0 + k * 0.4)
    assert not gateway.link_degraded("SIN", I)
    assert not gateway.forward(1).via_backup


def test_reaction_without_plan_uses_direct_premium(gateway, underlay):
    gateway.install_tables({1: ("SIN", I)}, {})  # no plans pushed
    inject_events(underlay, "HGH", "SIN", I,
                  [DegradationEvent(10.0, 60.0, 5000.0, 0.3)])
    for k in range(10):
        gateway.probe_all(14.0 + k * 0.4)
    decision = gateway.forward(1)
    assert decision.via_backup
    assert decision.next_hop == "SIN"
    assert decision.link_type is P


def test_multi_hop_plan_first_relay(gateway, underlay):
    gateway.install_tables({1: ("SIN", I)}, {1: ("FRA", "SIN")})
    inject_events(underlay, "HGH", "SIN", I,
                  [DegradationEvent(10.0, 60.0, 5000.0, 0.3)])
    for k in range(10):
        gateway.probe_all(14.0 + k * 0.4)
    decision = gateway.forward(1)
    assert decision.next_hop == "FRA"


def test_passive_tracking_flush(gateway):
    gateway.passive.record(("HGH", "SIN", I), 100, 1, 80.0)
    gateway.flush_passive(5.0)
    est = gateway.estimator("SIN", I)
    assert est.last_update == 5.0
    assert est.loss_rate == pytest.approx(0.01)


def test_passive_ignores_other_regions_links(gateway):
    gateway.passive.record(("SIN", "FRA", I), 100, 1, 80.0)
    gateway.flush_passive(5.0)
    with pytest.raises(RuntimeError):
        gateway.estimator("FRA", I).estimate()


def test_probe_accounting(gateway):
    gateway.probe_all(0.0)
    gateway.probe_all(0.4)
    assert gateway.probe_bytes_sent == 2 * 6 * 15 * 1500


def test_burst_bytes_follow_the_configured_packet_size(underlay):
    gw = Gateway("HGH", 0, underlay,
                 monitoring=MonitoringConfig(packet_bytes=1200),
                 rng=np.random.default_rng(0))
    rounds = [gw.probe_all(t) for t in (0.0, 0.4)]
    assert all(b.bytes_sent == 15 * 1200 for b in rounds[0])
    assert sum(b.bytes_sent for bursts in rounds for b in bursts) \
        == gw.probe_bytes_sent == 2 * 6 * 15 * 1200


def test_probe_all_returns_a_sized_batch_of_bursts(gateway, underlay):
    bursts = gateway.probe_all(0.0)
    assert len(bursts) == 6
    listed = list(bursts)
    assert listed[3] == bursts[3]
    assert [b.time for b in listed] == [0.0] * 6
    assert all(b.sent == 15 and 0 <= b.lost <= 15 for b in listed)
    probed = sorted(gateway.links, key=lambda k: (k[0], k[1].value))
    for burst, (dst, lt) in zip(listed, probed):
        truth = float(underlay.link("HGH", dst, lt).latency_ms(0.0))
        assert abs(burst.latency_ms / truth - 1.0) <= 0.02


# ------------------------------------------------- probe-round RNG order
@pytest.fixture()
def mixed_underlay(small_regions):
    """At t=20: every premium link loses exactly nothing (so `binomial`
    consumes no randomness there), HGH->SIN Internet sits in a 30 % loss
    burst, the other Internet links keep their small natural loss."""
    lossless = PremiumLinkConfig(base_loss_min=0.0, base_loss_max=0.0,
                                 diurnal_loss_amp=0.0)
    u = build_underlay(small_regions,
                       UnderlayConfig(horizon_s=7200.0, premium=lossless),
                       seed=11)
    for (a, b) in u.pairs:
        for lt in (I, P):
            quiet_link(u, a, b, lt)
    inject_events(u, "HGH", "SIN", I,
                  [DegradationEvent(10.0, 60.0, 5000.0, 0.3)])
    return u


def reference_probers(gateway):
    """One `ActiveProber` per adjacent link, all drawing from the
    gateway's own generator."""
    return {(dst, lt): ActiveProber(
                gateway.underlay.link(gateway.region, dst, lt),
                gateway.monitoring_config, gateway._rng)
            for (dst, lt) in gateway.links}


def reference_round(gateway, probers, now, blackout=None):
    """A probing round the scalar way: each link's own `LinkProcess`
    evaluated by `ActiveProber.probe`, in the (dst, tier name) order."""
    bursts = []
    for (dst, lt) in sorted(probers, key=lambda k: (k[0], k[1].value)):
        if blackout is not None and blackout(dst, lt):
            continue
        burst = probers[(dst, lt)].probe(now)
        gateway.estimator(dst, lt).ingest_burst(burst)
        bursts.append(burst)
    return bursts


@pytest.mark.parametrize("hidden", [(), (("FRA", I), ("SIN", P))],
                         ids=["all-links", "two-blacked-out"])
def test_probe_all_draws_what_per_link_probing_draws(mixed_underlay, hidden):
    now = 20.0
    assert float(mixed_underlay.link("HGH", "IAD", P).loss_rate(now)) == 0.0
    assert float(mixed_underlay.link("HGH", "SIN", I).loss_rate(now)) > 0.25
    blackout = (lambda dst, lt: (dst, lt) in hidden) if hidden else None
    fast, slow = (Gateway("HGH", 0, mixed_underlay,
                          rng=np.random.default_rng(5)) for _ in range(2))
    probers = reference_probers(slow)
    for k in range(3):
        t = now + 0.4 * k
        got = fast.probe_all(t, blackout=blackout)
        want = reference_round(slow, probers, t, blackout)
        assert len(got) == 6 - len(hidden)
        assert ([(b.time, b.latency_ms, b.sent, b.lost) for b in got]
                == [(b.time, b.latency_ms, b.sent, b.lost) for b in want])
        assert (fast._rng.bit_generator.state
                == slow._rng.bit_generator.state)
    assert any(b.lost for b in got)
    for key in probers:
        if key not in hidden:
            assert fast.estimator(*key).estimate() \
                == slow.estimator(*key).estimate()
    assert fast.probe_bytes_sent == sum(p.bytes_sent
                                        for p in probers.values())
