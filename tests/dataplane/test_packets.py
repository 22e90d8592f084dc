"""Tests for packet-level probing and the paper's loss-judgment rules."""

import numpy as np
import pytest

from repro.dataplane.config import MonitoringConfig
from repro.underlay.config import UnderlayConfig
from repro.underlay.events import DegradationEvent
from repro.underlay.linkstate import LinkType
from repro.underlay.scenarios import inject_events, quiet_link
from repro.underlay.topology import build_underlay
from tests.dataplane.packet_prober import PacketLevelProber
from tests.snapshots import ScalarLink


def _quiet_lossless_underlay(small_regions):
    """An underlay whose Internet links lose nothing outside events, its
    HGH -> SIN Internet link without events."""
    config = UnderlayConfig(horizon_s=7200.0)
    config.internet.base_loss_min = config.internet.base_loss_max = 0.0
    config.internet.diurnal_loss_amp = 0.0
    u = build_underlay(small_regions, config, seed=21)
    quiet_link(u, "HGH", "SIN", LinkType.INTERNET)
    return u


@pytest.fixture()
def clean_link(small_regions):
    u = _quiet_lossless_underlay(small_regions)
    return u.link("HGH", "SIN", LinkType.INTERNET)


@pytest.fixture()
def lossy_link(small_regions):
    u = _quiet_lossless_underlay(small_regions)
    inject_events(u, "HGH", "SIN", LinkType.INTERNET,
                  [DegradationEvent(0.0, 7000.0, 0.0, 0.2)])
    return u.link("HGH", "SIN", LinkType.INTERNET)


def _drive(link, seconds, rng_seed=0, config=None):
    config = config or MonitoringConfig()
    prober = PacketLevelProber(link, config,
                               np.random.default_rng(rng_seed))
    judged = lost = 0
    delays = []
    t = 10.0
    end = 10.0 + seconds
    while t < end:
        prober.send_burst(t)
        burst = prober.collect(t)
        judged += burst.judged
        lost += burst.lost
        if burst.judged:
            delays.append(burst.mean_judgment_delay_s)
        t += config.burst_interval_s
    # Drain stragglers well past the last timeout.
    final = prober.collect(end + 10.0)
    judged += final.judged
    lost += final.lost
    return prober, judged, lost, delays


class TestCleanLink:
    def test_no_losses_judged(self, clean_link):
        prober, judged, lost, __ = _drive(clean_link, 10.0)
        assert lost == 0
        assert judged == prober.packets_sent
        assert prober.outstanding == 0

    def test_judgment_delay_is_about_one_rtt(self, clean_link):
        __, __, __, delays = _drive(clean_link, 10.0)
        rtt = 2.0 * ScalarLink(clean_link).base_latency_ms / 1000.0
        assert np.mean(delays) == pytest.approx(rtt, rel=0.3)


class TestLossyLink:
    def test_measured_loss_matches_link_rate(self, lossy_link):
        """Per-packet judgments recover ~ the two-way loss probability."""
        prober, judged, lost, __ = _drive(lossy_link, 60.0, rng_seed=1)
        measured = lost / judged
        # Probe or reply lost: 1 - (1-p)^2 with p = 0.2.
        expected = 1.0 - 0.8 ** 2
        assert measured == pytest.approx(expected, abs=0.04)
        assert prober.outstanding == 0

    def test_all_packets_eventually_judged(self, lossy_link):
        prober, judged, __, __ = _drive(lossy_link, 20.0, rng_seed=2)
        assert judged == prober.packets_sent


class TestRuleOne:
    """Rule (i): >20 succeeding responses judge an outstanding probe lost."""

    def test_reordering_rule_fires_before_timeout(self, clean_link):
        prober = PacketLevelProber(clean_link, MonitoringConfig(),
                                   np.random.default_rng(3),
                                   reorder_loss_threshold=20,
                                   loss_timeout_rtts=1000.0)  # disable (ii)
        # Send one burst and drop its first packet manually.
        prober.send_burst(10.0)
        prober._pending[0].response_time = None
        # 14 remaining responses are not enough; send more bursts until
        # more than 20 succeeding responses have arrived.
        prober.send_burst(10.4)
        burst = prober.collect(12.0)
        assert burst.lost == 1
        assert prober.outstanding == 0

    def test_rule_one_counts_only_succeeding(self, clean_link):
        prober = PacketLevelProber(clean_link, MonitoringConfig(),
                                   np.random.default_rng(3),
                                   reorder_loss_threshold=20,
                                   loss_timeout_rtts=1000.0)
        prober.send_burst(10.0)
        # Drop the LAST packet: no succeeding responses ever arrive from
        # this burst, so rule (i) alone cannot judge it.
        prober._pending[-1].response_time = None
        prober.collect(12.0)
        assert prober.outstanding == 1


class TestRuleTwo:
    """Rule (ii): no response after three RTTs."""

    def test_timeout_judges_lost(self, clean_link):
        prober = PacketLevelProber(clean_link, MonitoringConfig(),
                                   np.random.default_rng(4),
                                   reorder_loss_threshold=10_000)  # no (i)
        prober.send_burst(10.0)
        prober._pending[-1].response_time = None
        rtt = 2.0 * ScalarLink(clean_link).base_latency_ms / 1000.0
        early = prober.collect(10.0 + 2.0 * rtt)
        assert early.lost == 0  # not yet three RTTs
        late = prober.collect(10.5 + 3.5 * rtt)
        assert late.lost == 1

    def test_judged_at_records_timeout_instant(self, clean_link):
        prober = PacketLevelProber(clean_link, MonitoringConfig(),
                                   np.random.default_rng(4),
                                   reorder_loss_threshold=10_000)
        prober.send_burst(10.0)
        packet = prober._pending[0]
        packet.response_time = None
        prober.collect(100.0)
        rtt = 2.0 * ScalarLink(clean_link).base_latency_ms / 1000.0
        assert packet.judged_at == pytest.approx(
            packet.send_time + 3.0 * rtt, rel=0.05)


def test_agrees_with_aggregate_prober(lossy_link):
    """The burst kernel's binomial draw and the packet-level reference
    measure the same loss rate (the former models one-way loss; the
    packet prober loses probe or reply, so compare accordingly)."""
    from repro.dataplane.probing import burst_series
    from tests.snapshots import series_of
    config = MonitoringConfig()
    __, __, loss = burst_series(series_of(lossy_link), 10.0, 70.0, config,
                                seed=5)
    one_way = float(loss.mean())
    __, judged, lost, __ = _drive(lossy_link, 60.0, rng_seed=6)
    two_way = lost / judged
    assert two_way == pytest.approx(1 - (1 - one_way) ** 2, abs=0.05)
