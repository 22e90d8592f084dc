"""Tests for active probing and the one burst kernel under it."""

from functools import partial

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from repro import obs
from repro.dataplane.config import MonitoringConfig
from repro.dataplane.probing import burst_bytes, burst_draws, burst_series
from repro.underlay.linkstate import LinkType
from tests.snapshots import series_of


@pytest.fixture()
def link(small_underlay):
    a, b = small_underlay.pairs[0]
    return small_underlay.link(a, b, LinkType.INTERNET)


@pytest.fixture()
def series(link):
    return series_of(link)


class TestBurstDraws:
    def test_measured_latency_close_to_truth(self):
        jitter, __ = burst_draws(np.arange(40, dtype=np.uint64)[:, None],
                                 np.arange(500), 0.01, 15)
        assert jitter.shape == (40, 500)
        assert 0.98 <= jitter.min() and jitter.max() < 1.02
        assert abs(jitter.mean() - 1.0) < 1e-3

    def test_loss_draw_matches_rate(self, link):
        p = float(link.loss_rate(50.0))
        __, lost = burst_draws(9, np.arange(5000), p, 15)
        assert abs(lost.mean() - 15 * p) < 0.05

    def test_accounting(self):
        lost = np.array([[0, 2, 1], [3, 0, 0]])
        with obs.capture() as hub:
            assert burst_bytes(lost, MonitoringConfig()) == 6 * 15 * 1500
            values = {name: entry["value"] for name, entry
                      in hub.metrics.snapshot().items()}
        assert values == {"probing.bursts": 6, "probing.bytes": 6 * 15 * 1500,
                          "probing.lost_packets": 6}

    @pytest.mark.parametrize("packets", [15, 50])
    @pytest.mark.parametrize("p", [0.0, 0.002, 0.01, 1 / 15, 0.12, 0.5, 1.0])
    def test_lost_counts_follow_the_binomial_law(self, p, packets):
        """10^5 bursts of one link: the lost-count histogram is
        Binomial(packets, p) (chi-square, bins of expected count >= 5,
        the tail pooled)."""
        __, lost = burst_draws(2024, np.arange(100_000), p, packets)
        observed = np.bincount(lost, minlength=packets + 1)
        expected = binom.pmf(np.arange(packets + 1), packets, p) * lost.size
        if p in (0.0, 1.0):
            assert observed[round(p * packets)] == lost.size
            return
        kept = expected >= 5.0
        observed = np.append(observed[kept], observed[~kept].sum())
        expected = np.append(expected[kept], expected[~kept].sum())
        assert chisquare(observed, expected * lost.size / expected.sum()
                         ).pvalue > 1e-3

    def test_every_call_shape_is_the_element_wise_kernel(self):
        seeds = np.array([[3], [4]], dtype=np.uint64)
        loss = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        jitter, lost = burst_draws(seeds, np.arange(3), loss, 15)
        for i in range(2):
            for k in range(3):
                one = burst_draws(int(seeds[i, 0]), k, loss[i, k], 15)
                assert (jitter[i, k], lost[i, k]) == one


#: (seed, burst, loss rate, packets) -> (jitter, lost packets), floats
#: as `float.hex()`.  The last two rows put the uniform exactly on F(0)
#: of Binomial(1, p) and on F(1) of Binomial(2, p): a burst whose
#: quantile ties the CDF lost the next packet too.
_BURST_KAT = [
    (0, 0, "0x0.0p+0", 15, "0x1.f977217cbe8aep-1", 0),
    (1, 72000, "0x1.0624dd2f1a9fcp-9", 15, "0x1.01d2a1eaabc0cp+0", 0),
    (12345, 72001, "0x1.47ae147ae147bp-7", 15, "0x1.03980f4f4fd2cp+0", 0),
    (2 ** 63 + 5, 10 ** 9, "0x1.1111111111111p-4", 15,
     "0x1.041bda25565a8p+0", 3),
    (7, 3, "0x1.3333333333333p-2", 15, "0x1.ff165156ed56fp-1", 3),
    (99, 123456, "0x1.eb851eb851eb8p-4", 50, "0x1.f8b3d40ca6ce0p-1", 6),
    (2 ** 64 - 1, 42, "0x1.0000000000000p-1", 50, "0x1.00388ea762235p+0",
     19),
    (3, 0, "0x1.0000000000000p+0", 15, "0x1.f787bc2014209p-1", 15),
    (1, 1, "0x1.a0790715bc6ccp-2", 1, "0x1.ff120c47782cbp-1", 1),
    (1, 2, "0x1.2028a05568aa6p-1", 2, "0x1.048d98195d42ep+0", 2),
]


@pytest.mark.parametrize("seed, burst, p, packets, jitter, lost", _BURST_KAT)
def test_burst_draws_known_answers(seed, burst, p, packets, jitter, lost):
    got_jitter, got_lost = burst_draws(seed, burst, float.fromhex(p),
                                       packets)
    assert (float(got_jitter).hex(), int(got_lost)) == (jitter, lost)


class TestBurstSeries:
    def test_burst_cadence(self, series):
        config = MonitoringConfig(burst_interval_s=0.4)
        times, lat, loss = burst_series(series, 0.0, 60.0, config, seed=1)
        assert times.size == 150
        assert np.allclose(np.diff(times), 0.4)

    def test_empty_window_rejected(self, series):
        with pytest.raises(ValueError):
            burst_series(series, 10.0, 10.0, MonitoringConfig(), seed=1)

    def test_loss_fractions_in_unit_interval(self, series):
        __, __, loss = burst_series(series, 0.0, 600.0, MonitoringConfig(),
                                    seed=1)
        assert np.all(loss >= 0.0) and np.all(loss <= 1.0)

    def test_loss_quantised_to_packets(self, series):
        config = MonitoringConfig(packets_per_burst=15)
        __, __, loss = burst_series(series, 0.0, 600.0, config, seed=1)
        counts = loss * 15
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)

    def test_deterministic_per_seed(self, series):
        config = MonitoringConfig()
        a = burst_series(series, 0.0, 60.0, config, seed=5)
        b = burst_series(series, 0.0, 60.0, config, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = burst_series(series, 0.0, 60.0, config, seed=6)
        assert not np.allclose(a[1], c[1])

    def test_latency_tracks_link(self, link, series):
        __, lat, __ = burst_series(series, 0.0, 60.0, MonitoringConfig(),
                                   seed=1)
        truth = link.latency_ms(np.arange(0.0, 60.0, 0.4))
        assert np.all(np.abs(lat / truth - 1.0) <= 0.021)

    def test_noise_is_indexed_by_absolute_burst_number(self):
        """Regression: the noise was indexed by position in the window,
        so burst k of every 300 s epoch drew the same jitter and loss
        quantile.  At equal true state, two epochs must read apart — and
        a burst reads the same from any window that holds it."""
        config = MonitoringConfig()

        def steady(times):
            return np.full(times.size, 80.0), np.full(times.size, 0.05)
        __, lat_e, loss_e = burst_series(steady, 0.0, 300.0, config, seed=3)
        __, lat_f, loss_f = burst_series(steady, 300.0, 600.0, config, seed=3)
        assert not np.array_equal(lat_e, lat_f)
        assert not np.array_equal(loss_e, loss_f)
        __, lat_w, loss_w = burst_series(steady, 200.0, 400.0, config, seed=3)
        np.testing.assert_array_equal(lat_w, np.concatenate(
            [lat_e[500:], lat_f[:250]]))
        np.testing.assert_array_equal(loss_w, np.concatenate(
            [loss_e[500:], loss_f[:250]]))


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
            t1, lat1, loss1 = burst_series(
                series_of(small_underlay.link(*hop)), 900.0, 1200.0, config,
                int(seeds[h]))
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
