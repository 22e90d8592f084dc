"""Tests for passive tracking and group-based probing."""

import numpy as np
import pytest

from repro.controlplane.nib import LinkReport
from repro.dataplane.grouping import ProbingGroupManager, probing_cost
from repro.dataplane.passive import MIN_PACKETS, PassiveTracker
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_INDEX

LINK = ("A", "B", LinkType.INTERNET)


def aggregate_one(mgr, src, dst, link_type, measurements, now):
    """`aggregate` of one link's ``(latency, loss)`` pairs, as its
    one-report batch's `LinkReport`."""
    index = mgr.codes.index
    latency, loss = np.array(measurements, dtype=float).reshape(-1, 2).T
    return mgr.aggregate(
        np.array([index(src)]), np.array([index(dst)]),
        np.array([TYPE_INDEX[link_type]]),
        [(slice(None), latency[:, None], loss[:, None])], now)[0]


class TestPassiveTracker:
    def test_flush_requires_min_packets(self):
        tracker = PassiveTracker()
        tracker.record(LINK, MIN_PACKETS - 1, 1, 100.0)
        assert tracker.flush(1.0) == []

    def test_flush_aggregates(self):
        tracker = PassiveTracker()
        tracker.record(LINK, 50, 5, 100.0)
        tracker.record(LINK, 50, 0, 200.0)
        samples = tracker.flush(10.0)
        assert len(samples) == 1
        s = samples[0]
        assert s.loss_rate == pytest.approx(0.05)
        assert s.latency_ms == pytest.approx(150.0)
        assert s.packets == 100
        assert s.time == 10.0

    def test_flush_resets_windows(self):
        tracker = PassiveTracker()
        tracker.record(LINK, 30, 0, 100.0)
        tracker.flush(1.0)
        assert tracker.flush(2.0) == []

    def test_links_tracked_separately(self):
        tracker = PassiveTracker()
        other = ("B", "A", LinkType.PREMIUM)
        tracker.record(LINK, 30, 0, 100.0)
        tracker.record(other, 40, 4, 50.0)
        samples = {s.link: s for s in tracker.flush(1.0)}
        assert samples[LINK].loss_rate == 0.0
        assert samples[other].loss_rate == pytest.approx(0.1)

    def test_invalid_counts_rejected(self):
        tracker = PassiveTracker()
        with pytest.raises(ValueError):
            tracker.record(LINK, 5, 6, 10.0)
        with pytest.raises(ValueError):
            tracker.record(LINK, -1, 0, 10.0)

    def test_all_lost_window_has_zero_latency(self):
        tracker = PassiveTracker()
        tracker.record(LINK, 30, 30, 0.0)
        samples = tracker.flush(1.0)
        assert samples[0].loss_rate == 1.0
        assert samples[0].latency_ms == 0.0


class TestProbingCost:
    def test_full_mesh_quadratic_in_gateways(self):
        assert probing_cost(11, 10) == 11 * 10 * 100

    def test_grouped_independent_of_gateways(self):
        assert probing_cost(11, 10, representatives=2) == 11 * 10 * 2
        assert probing_cost(11, 1000, representatives=2) == 11 * 10 * 2

    def test_reduction_matches_paper_scaling(self):
        """O(N(N-1)M^2) -> O(N(N-1)R)."""
        full = probing_cost(11, 20)
        grouped = probing_cost(11, 20, representatives=2)
        assert full / grouped == pytest.approx(20 ** 2 / 2)

    def test_rejects_single_region(self):
        with pytest.raises(ValueError):
            probing_cost(1, 5)


class TestProbingGroupManager:
    def test_elect_lowest_ids(self):
        mgr = ProbingGroupManager(["A", "B"], representatives=2)
        assert mgr.elect("A", [7, 3, 9, 1]) == [1, 3]

    def test_elect_fewer_gateways_than_representatives(self):
        mgr = ProbingGroupManager(["A", "B"], representatives=3)
        assert mgr.elect("A", [5]) == [5]

    def test_elect_empty_rejected(self):
        mgr = ProbingGroupManager(["A", "B"])
        with pytest.raises(ValueError):
            mgr.elect("A", [])

    def test_rejects_zero_representatives(self):
        with pytest.raises(ValueError):
            ProbingGroupManager(["A"], representatives=0)

    def test_aggregate_median(self):
        mgr = ProbingGroupManager(["A", "B"], representatives=3)
        report = aggregate_one(mgr, "A", "B", LinkType.INTERNET,
                               [(100.0, 0.01), (120.0, 0.02), (900.0, 0.5)],
                               now=5.0)
        assert isinstance(report, LinkReport)
        assert report.latency_ms == 120.0  # robust to the outlier
        assert report.loss_rate == 0.02
        assert report.reported_at == 5.0

    def test_aggregate_empty_rejected(self):
        mgr = ProbingGroupManager(["A", "B"])
        with pytest.raises(ValueError):
            aggregate_one(mgr, "A", "B", LinkType.INTERNET, [], now=0.0)

    def test_aggregate_clips_loss(self):
        mgr = ProbingGroupManager(["A", "B"], representatives=1)
        report = aggregate_one(mgr, "A", "B", LinkType.PREMIUM,
                               [(10.0, -0.1)], now=0.0)
        assert report.loss_rate == 0.0


class TestAggregateMedianIsNumpyMedian:
    """`aggregate` takes the median without numpy; every NIB report (and
    through them every golden) rides on it being `np.median` bit for bit."""

    @staticmethod
    def check(measurements):
        mgr = ProbingGroupManager(["A", "B"], representatives=3)
        report = aggregate_one(mgr, "A", "B", LinkType.INTERNET,
                               measurements, now=1.0)
        lat = float(np.median([m[0] for m in measurements]))
        loss = float(np.median([m[1] for m in measurements]))
        assert report.latency_ms == lat
        assert report.loss_rate == min(max(loss, 0.0), 1.0)
        assert type(report.latency_ms) is float
        assert type(report.loss_rate) is float

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_random_draws(self, n):
        rng = np.random.default_rng(n)
        for _ in range(1000):
            lat = rng.uniform(1.0, 500.0, size=n) * rng.uniform(0.98, 1.02)
            loss = rng.uniform(0.0, 1.0, size=n) ** 4
            self.check(list(zip(lat.tolist(), loss.tolist())))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_ties_and_boundary_values(self, n):
        lat_pool = [35.0, 35.0, 0.1 + 0.2, float("inf"), float("inf"), 1e-3]
        loss_pool = [0.0, 1.0, 0.0, 1.0, 1.0 / 15.0, 1.0 / 15.0]
        for shift in range(6):
            lat = [lat_pool[(shift + k) % 6] for k in range(n)]
            loss = [loss_pool[(shift + k) % 6] for k in range(n)]
            self.check(list(zip(lat, loss)))

    def test_numpy_scalars_in_give_python_floats_out(self):
        self.check([(np.float64(10.0), np.float64(0.25)),
                    (np.float64(30.0), np.float64(0.5))])
