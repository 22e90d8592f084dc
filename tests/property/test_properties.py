"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import weighted_percentiles
from repro.controlplane.model import OverlayPath
from repro.controlplane.prediction import DTFTPredictor, RollingPredictor
from repro.qoe.audio import audio_fluency_series
from repro.qoe.video import stall_durations, stall_series
from repro.sim.rng import hash_noise, hash_uniform
from repro.underlay.events import DegradationEvent, EventTimeline
from repro.underlay.linkstate import LinkType
from tests.controlplane.route_oracle import path_loss_rate
from tests.snapshots import snapshot_of

# ---------------------------------------------------------------- strategies

events_strategy = st.lists(
    st.builds(DegradationEvent,
              start=st.floats(0.0, 10_000.0),
              duration=st.floats(0.1, 500.0),
              latency_add_ms=st.floats(0.0, 12_000.0),
              loss_add=st.floats(0.0, 0.95)),
    min_size=0, max_size=30)

times_strategy = st.lists(st.floats(-100.0, 12_000.0), min_size=1,
                          max_size=50).map(np.array)


class TestEventTimelineProperties:
    @given(events=events_strategy, times=times_strategy)
    @settings(max_examples=100, deadline=None)
    def test_severity_non_negative(self, events, times):
        tl = EventTimeline.from_events(events, 20_000.0)
        assert np.all(tl.latency_add(times) >= 0.0)
        assert np.all(tl.loss_add(times) >= 0.0)

    @given(events=events_strategy, times=times_strategy)
    @settings(max_examples=60, deadline=None)
    def test_severity_bounded_by_sum_of_peaks(self, events, times):
        tl = EventTimeline.from_events(events, 20_000.0)
        bound = sum(e.latency_add_ms for e in events) + 1e-6
        assert np.all(tl.latency_add(times) <= bound)

    @given(events=events_strategy)
    @settings(max_examples=60, deadline=None)
    def test_zero_outside_any_event(self, events):
        tl = EventTimeline.from_events(events, 20_000.0)
        after = max((e.start + e.duration for e in events),
                    default=0.0) + 1.0
        assert float(tl.latency_add(after)) <= 1e-6

    @given(events=events_strategy, times=times_strategy)
    @settings(max_examples=60, deadline=None)
    def test_union_additivity(self, events, times):
        """Splitting an event set into two timelines and summing equals
        one combined timeline."""
        half = len(events) // 2
        a = EventTimeline.from_events(events[:half], 20_000.0)
        b = EventTimeline.from_events(events[half:], 20_000.0)
        both = EventTimeline.from_events(events, 20_000.0)
        np.testing.assert_allclose(
            a.latency_add(times) + b.latency_add(times),
            both.latency_add(times), rtol=1e-6, atol=1e-6)


class TestHashNoiseProperties:
    @given(seed=st.integers(0, 2**63 - 1),
           t=st.lists(st.floats(0, 1e7), min_size=1, max_size=30).map(np.array))
    @settings(max_examples=100, deadline=None)
    def test_uniform_in_range(self, seed, t):
        u = hash_uniform(seed, t)
        assert np.all((u >= 0.0) & (u < 1.0))

    @given(seed=st.integers(0, 2**63 - 1), t=st.floats(0, 1e7))
    @settings(max_examples=100, deadline=None)
    def test_reproducible(self, seed, t):
        assert hash_uniform(seed, t) == hash_uniform(seed, t)
        assert hash_noise(seed, t) == hash_noise(seed, t)


class TestPathProperties:
    regions = st.lists(st.sampled_from(["A", "B", "C", "D", "E"]),
                       min_size=2, max_size=4, unique=True)

    @given(regions=regions,
           lat=st.floats(0.1, 1000.0), loss=st.floats(0.0, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_latency_additivity_and_loss_bound(self, regions, lat, loss):
        path = OverlayPath.via(regions, LinkType.INTERNET)
        state = snapshot_of(regions, lambda a, b, t: (lat, loss))
        total_lat = state.path_latency_ms(path)
        assert total_lat == pytest.approx(lat * len(path.hops))
        total_loss = path_loss_rate(state, path)
        assert 0.0 <= total_loss <= 1.0
        # Path loss at least the worst single hop, at most the sum.
        assert total_loss >= loss - 1e-12
        assert total_loss <= loss * len(path.hops) + 1e-12

    @given(regions=regions)
    @settings(max_examples=50, deadline=None)
    def test_regions_consistent_with_hops(self, regions):
        path = OverlayPath.via(regions, LinkType.PREMIUM)
        assert path.regions == tuple(regions)
        assert len(path.hops) == len(regions) - 1


class TestPredictionProperties:
    @given(values=st.lists(st.floats(0.0, 1e6), min_size=8, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_dtft_predictions_non_negative(self, values):
        p = DTFTPredictor(10).fit(values)
        assert np.all(p.predict(16) >= 0.0)

    @given(values=st.lists(st.floats(0.0, 1e6), min_size=8, max_size=60),
           spike=st.floats(1e6, 1e9))
    @settings(max_examples=50, deadline=None)
    def test_production_rule_never_below_last_actual(self, values, spike):
        r = RollingPredictor(min_history=4)
        for v in values:
            r.observe(v)
        r.observe(spike)
        assert r.predict_next() >= spike


class TestQoEProperties:
    lat_series = st.lists(st.floats(1.0, 5000.0), min_size=1,
                          max_size=80).map(np.array)
    loss_series = st.lists(st.floats(0.0, 1.0), min_size=1,
                           max_size=80).map(np.array)

    @given(lat=lat_series)
    @settings(max_examples=60, deadline=None)
    def test_fluency_bounds(self, lat):
        loss = np.zeros_like(lat)
        scores = audio_fluency_series(lat, loss)
        assert np.all((scores >= 1.0) & (scores <= 5.0))

    @given(flags=st.lists(st.booleans(), min_size=1, max_size=100),
           step=st.floats(0.1, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_stall_durations_sum_to_stalled_time(self, flags, step):
        stalled = np.array(flags, dtype=bool)
        durations = stall_durations(stalled, step)
        assert durations.sum() == pytest.approx(stalled.sum() * step)

    @given(lat=lat_series)
    @settings(max_examples=40, deadline=None)
    def test_stall_monotone_in_latency(self, lat):
        loss = np.zeros_like(lat)
        base = stall_series(lat, loss)
        worse = stall_series(lat * 2.0, loss)
        # Anything stalled on the good network is stalled on the bad one.
        assert np.all(worse | ~base)


class TestStatsProperties:
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
           p=st.floats(0.0, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_weighted_percentile_within_range(self, values, p):
        v = np.array(values)
        w = np.ones_like(v)
        out = weighted_percentiles(v, w, [p])[0]
        assert v.min() - 1e-9 <= out <= v.max() + 1e-9
