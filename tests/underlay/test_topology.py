"""Tests for the assembled underlay, including calibration targets."""

import numpy as np
import pytest

from repro.underlay.config import UnderlayConfig
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import default_regions
from repro.underlay.topology import build_underlay


class TestConstruction:
    def test_all_directed_links_of_both_types(self, small_underlay):
        n = len(small_underlay.regions)
        for (a, b) in small_underlay.pairs:
            for lt in (LinkType.INTERNET, LinkType.PREMIUM):
                assert small_underlay.link(a, b, lt) is not None
        assert len(small_underlay.pairs) == n * (n - 1)

    def test_missing_link_raises(self, small_underlay):
        with pytest.raises(KeyError):
            small_underlay.link("HGH", "XXX", LinkType.INTERNET)

    def test_region_lookup(self, small_underlay):
        assert small_underlay.region("HGH").code == "HGH"
        with pytest.raises(KeyError):
            small_underlay.region("XXX")

    def test_rejects_single_region(self):
        with pytest.raises(ValueError):
            build_underlay(default_regions()[:1])

    def test_deterministic_given_seed(self, small_regions):
        cfg = UnderlayConfig(horizon_s=3600.0)
        u1 = build_underlay(small_regions, cfg, seed=9)
        u2 = build_underlay(small_regions, cfg, seed=9)
        t = np.arange(0, 3600, 60.0)
        for (a, b) in u1.pairs:
            np.testing.assert_array_equal(
                u1.link(a, b, LinkType.INTERNET).latency_ms(t),
                u2.link(a, b, LinkType.INTERNET).latency_ms(t))

    def test_seed_changes_underlay(self, small_regions):
        cfg = UnderlayConfig(horizon_s=3600.0)
        u1 = build_underlay(small_regions, cfg, seed=1)
        u2 = build_underlay(small_regions, cfg, seed=2)
        t = np.arange(0, 3600, 60.0)
        a, b = u1.pairs[0]
        assert not np.allclose(
            u1.link(a, b, LinkType.INTERNET).latency_ms(t),
            u2.link(a, b, LinkType.INTERNET).latency_ms(t))

    def test_directions_are_independent(self, small_underlay):
        t = np.arange(0, 3600, 30.0)
        a, b = small_underlay.pairs[0]
        fwd = small_underlay.link(a, b, LinkType.INTERNET).latency_ms(t)
        rev = small_underlay.link(b, a, LinkType.INTERNET).latency_ms(t)
        assert not np.allclose(fwd, rev)


class TestCalibration:
    """Reproduction targets from §2.2 (Figs. 1-3, 8, 9)."""

    @pytest.fixture(scope="class")
    def day(self):
        return np.arange(0.0, 86400.0, 60.0)

    def test_premium_latency_below_internet(self, full_underlay, day):
        ilat = full_underlay.average_state(LinkType.INTERNET, day)[0]
        plat = full_underlay.average_state(LinkType.PREMIUM, day)[0]
        assert plat.mean() < ilat.mean() * 0.6

    def test_premium_latency_is_stable(self, full_underlay, day):
        plat = full_underlay.average_state(LinkType.PREMIUM, day)[0]
        assert plat.std() / plat.mean() < 0.05

    def test_internet_latency_fluctuates(self, full_underlay, day):
        ilat = full_underlay.average_state(LinkType.INTERNET, day)[0]
        assert ilat.max() > ilat.min() * 1.5

    def test_premium_loss_tiny(self, full_underlay, day):
        ploss = full_underlay.average_state(LinkType.PREMIUM, day)[1]
        assert ploss.mean() < 0.001

    def test_internet_loss_significant(self, full_underlay, day):
        iloss = full_underlay.average_state(LinkType.INTERNET, day)[1]
        assert 0.002 < iloss.mean() < 0.05

    def test_fig3_internet_tail(self, full_underlay):
        """~20% of Internet links spend >10% of time with high latency."""
        fracs = np.array([
            link.bad_fraction(0, 86400.0, 30.0)[0]
            for link in full_underlay.links_of_type(LinkType.INTERNET)])
        assert 0.08 < np.mean(fracs > 0.10) < 0.40

    def test_fig3_premium_near_zero(self, full_underlay):
        fracs = [link.bad_fraction(0, 86400.0, 60.0)
                 for link in full_underlay.links_of_type(LinkType.PREMIUM)]
        assert max(f[0] for f in fracs) < 0.01
        assert max(f[1] for f in fracs) < 0.01

    def test_fig9_short_long_ratio(self, full_underlay):
        """Short degradations ~two orders of magnitude more than long."""
        durations = np.concatenate([
            link.timeline.durations
            for link in full_underlay.links_of_type(LinkType.INTERNET)])
        ratio = np.sum(durations < 30.0) / max(np.sum(durations >= 30.0), 1)
        assert 40 < ratio < 400

    def test_internet_spikes_reach_many_seconds(self, full_underlay):
        t = np.arange(0.0, 86400.0, 5.0)
        worst = max(float(link.latency_ms(t).max())
                    for link in full_underlay.links_of_type(LinkType.INTERNET))
        assert worst > 5000.0  # paper's example pair peaks at ~20.5 s
