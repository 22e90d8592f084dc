"""Tests for active probing."""

from functools import partial

import numpy as np
import pytest

from repro.dataplane.config import MonitoringConfig
from repro.dataplane.probing import ActiveProber, ProbeBurst, burst_series
from repro.underlay.linkstate import LinkType


@pytest.fixture()
def link(small_underlay):
    a, b = small_underlay.pairs[0]
    return small_underlay.link(a, b, LinkType.INTERNET)


class TestProbeBurst:
    def test_loss_fraction(self):
        burst = ProbeBurst(0.0, 100.0, 15, 3)
        assert burst.loss_fraction == pytest.approx(0.2)

    def test_zero_sent(self):
        assert ProbeBurst(0.0, 0.0, 0, 0).loss_fraction == 0.0

    def test_bytes(self):
        assert ProbeBurst(0.0, 0.0, 15, 0).bytes_sent == 22500

    def test_bytes_follow_the_probers_packet_size(self, link, rng):
        config = MonitoringConfig(packet_bytes=1200)
        prober = ActiveProber(link, config, rng)
        assert prober.probe(10.0).bytes_sent == prober.bytes_sent \
            == 15 * 1200


class TestActiveProber:
    def test_measured_latency_close_to_truth(self, link, rng):
        prober = ActiveProber(link, MonitoringConfig(), rng)
        burst = prober.probe(100.0)
        truth = float(link.latency_ms(100.0))
        assert abs(burst.latency_ms - truth) / truth < 0.03

    def test_loss_draw_matches_rate(self, link, rng):
        prober = ActiveProber(link, MonitoringConfig(), rng)
        losses = [prober.probe(50.0).lost for __ in range(500)]
        expected = float(link.loss_rate(50.0)) * 15
        assert abs(np.mean(losses) - expected) < 0.5

    def test_accounting(self, link, rng):
        config = MonitoringConfig()
        prober = ActiveProber(link, config, rng)
        for i in range(10):
            prober.probe(float(i))
        assert prober.bursts_sent == 10
        assert prober.bytes_sent == 10 * 15 * 1500


class TestBurstSeries:
    def test_burst_cadence(self, link):
        config = MonitoringConfig(burst_interval_s=0.4)
        times, lat, loss = burst_series(link, 0.0, 60.0, config, seed=1)
        assert times.size == 150
        assert np.allclose(np.diff(times), 0.4)

    def test_empty_window_rejected(self, link):
        with pytest.raises(ValueError):
            burst_series(link, 10.0, 10.0, MonitoringConfig(), seed=1)

    def test_loss_fractions_in_unit_interval(self, link):
        __, __, loss = burst_series(link, 0.0, 600.0, MonitoringConfig(),
                                    seed=1)
        assert np.all(loss >= 0.0) and np.all(loss <= 1.0)

    def test_loss_quantised_to_packets(self, link):
        config = MonitoringConfig(packets_per_burst=15)
        __, __, loss = burst_series(link, 0.0, 600.0, config, seed=1)
        counts = loss * 15
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)

    def test_deterministic_per_seed(self, link):
        config = MonitoringConfig()
        a = burst_series(link, 0.0, 60.0, config, seed=5)
        b = burst_series(link, 0.0, 60.0, config, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = burst_series(link, 0.0, 60.0, config, seed=6)
        assert not np.allclose(a[1], c[1])

    def test_latency_tracks_link(self, link):
        __, lat, __ = burst_series(link, 0.0, 60.0, MonitoringConfig(),
                                   seed=1)
        truth = link.latency_ms(np.arange(0.0, 60.0, 0.4))
        assert np.all(np.abs(lat / truth - 1.0) <= 0.021)


class TestMonitoringConfigValidation:
    def test_bad_interval(self):
        with pytest.raises(ValueError):
            MonitoringConfig(burst_interval_s=0.0)

    def test_bad_packet_count(self):
        with pytest.raises(ValueError):
            MonitoringConfig(packets_per_burst=0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            MonitoringConfig(ewma_alpha=0.0)


class TestBurstSeriesBlocks:
    """A block of links probed in one pass: every row is the one-link
    call, bit for bit."""

    @pytest.fixture()
    def hops(self, small_underlay):
        return [(a, b, lt) for (a, b) in small_underlay.pairs
                for lt in (LinkType.INTERNET, LinkType.PREMIUM)]

    def test_rows_equal_one_link_calls(self, small_underlay, hops):
        config = MonitoringConfig()
        seeds = np.array([2**63 + 17 * h for h in range(len(hops))],
                         dtype=np.uint64)
        times, lat, loss = burst_series(
            partial(small_underlay.link_series, hops), 900.0, 1200.0,
            config, seeds[:, None])
        assert lat.shape == loss.shape == (len(hops), times.size)
        for h, hop in enumerate(hops):
            t1, lat1, loss1 = burst_series(small_underlay.link(*hop), 900.0,
                                           1200.0, config, int(seeds[h]))
            np.testing.assert_array_equal(t1, times)
            np.testing.assert_array_equal(lat1, lat[h])
            np.testing.assert_array_equal(loss1, loss[h])

    def test_lossy_rows_differ_between_seeds(self, small_underlay, hops):
        config = MonitoringConfig()
        same = [hops[0], hops[0]]
        __, lat, __ = burst_series(
            partial(small_underlay.link_series, same), 0.0, 60.0, config,
            np.array([[5], [6]], dtype=np.uint64))
        assert not np.array_equal(lat[0], lat[1])

    def test_empty_window_rejected_for_blocks_too(self, small_underlay,
                                                  hops):
        with pytest.raises(ValueError):
            burst_series(partial(small_underlay.link_series, hops), 10.0,
                         10.0, MonitoringConfig(),
                         np.zeros((len(hops), 1), dtype=np.uint64))
