"""Tests for degradation-event timelines."""

import numpy as np
import pytest

from repro.underlay.events import (DegradationEvent, EventTimeline,
                                   MAX_EVENT_LATENCY_MS, TimelineDraws,
                                   generate_timeline)
from tests.underlay.timeline_oracle import segment


def _timeline(events, horizon=1000.0):
    return EventTimeline.from_events(events, horizon)


class TestDegradationEvent:
    def test_ramp_capped(self):
        """The ramp is 35 % of the duration, at most 3 s: half way up it
        the event adds half its peak."""
        long_event = _timeline([DegradationEvent(0, 100.0, 100.0, 0)])
        assert long_event.latency_add(1.5) == pytest.approx(50.0)
        assert long_event.latency_add(3.0) == pytest.approx(100.0)
        short_event = _timeline([DegradationEvent(0, 4.0, 100.0, 0)])
        assert short_event.latency_add(0.7) == pytest.approx(50.0)
        assert short_event.latency_add(1.4) == pytest.approx(100.0)


class TestEventTimeline:
    def test_empty_timeline_is_zero(self):
        tl = _timeline([])
        assert tl.latency_add(5.0) == 0.0
        assert tl.loss_add(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]
        assert len(tl) == 0

    def test_zero_before_first_event(self):
        tl = _timeline([DegradationEvent(100.0, 10.0, 500.0, 0.1)])
        assert tl.latency_add(50.0) == 0.0

    def test_peak_severity_mid_event(self):
        tl = _timeline([DegradationEvent(100.0, 20.0, 500.0, 0.1)])
        assert tl.latency_add(110.0) == pytest.approx(500.0, rel=1e-6)
        assert tl.loss_add(110.0) == pytest.approx(0.1, rel=1e-6)

    def test_zero_after_event(self):
        tl = _timeline([DegradationEvent(100.0, 20.0, 500.0, 0.1)])
        assert tl.latency_add(121.0) == pytest.approx(0.0, abs=1e-9)

    def test_ramp_up_is_partial(self):
        # Event from t=100, duration 20 -> ramp = 3 s.
        tl = _timeline([DegradationEvent(100.0, 20.0, 600.0, 0.3)])
        half_ramp = tl.latency_add(101.5)
        assert 0.0 < half_ramp < 600.0
        assert half_ramp == pytest.approx(300.0, rel=1e-6)

    def test_ramp_down_mirrors_up(self):
        tl = _timeline([DegradationEvent(100.0, 20.0, 600.0, 0.3)])
        assert tl.latency_add(118.5) == pytest.approx(
            tl.latency_add(101.5), rel=1e-9)

    def test_overlapping_events_sum(self):
        tl = _timeline([DegradationEvent(100.0, 30.0, 400.0, 0.05),
                        DegradationEvent(110.0, 30.0, 300.0, 0.05)])
        mid = tl.latency_add(118.0)  # both at full severity
        assert mid == pytest.approx(700.0, rel=1e-6)

    def test_severity_never_negative(self):
        tl = _timeline([DegradationEvent(10.0 * i, 5.0, 100.0, 0.01)
                        for i in range(50)])
        t = np.linspace(0, 600, 4001)
        assert np.all(tl.latency_add(t) >= 0)
        assert np.all(tl.loss_add(t) >= 0)

    def test_vectorised_matches_scalar(self):
        tl = _timeline([DegradationEvent(5.0, 12.0, 250.0, 0.2),
                        DegradationEvent(30.0, 40.0, 100.0, 0.01)])
        times = np.linspace(0, 100, 101)
        vec = tl.latency_add(times)
        scal = np.array([float(tl.latency_add(t)) for t in times])
        np.testing.assert_allclose(vec, scal)

    def test_events_property_round_trips(self):
        events = [DegradationEvent(5.0, 12.0, 250.0, 0.2),
                  DegradationEvent(1.0, 4.0, 100.0, 0.01)]
        tl = _timeline(events)
        out = tl.events
        assert len(out) == 2
        # Sorted by start time.
        assert out[0].start == 1.0 and out[1].start == 5.0


class TestPieces:
    """`EventTimeline.pieces`: the window's run of scalar `segment`s
    (`tests/underlay/timeline_oracle.py`), as views."""

    EVENTS = [DegradationEvent(100.0, 20.0, 500.0, 0.1),
              DegradationEvent(110.0, 40.0, 200.0, 0.0),
              DegradationEvent(400.0, 0.0, 50.0, 0.2)]

    @pytest.mark.parametrize("window", [
        (0.0, 1000.0), (50.0, 99.0), (100.0, 100.0), (99.0, 103.0),
        (105.0, 130.0), (150.0, 399.0), (400.0, 400.0), (500.0, 900.0)])
    def test_every_instant_of_the_window_finds_its_segment(self, window):
        tl = _timeline(self.EVENTS)
        first, last = window
        t0, *values = tl.pieces(first, last)
        inside = tl._times[(tl._times >= first) & (tl._times <= last)]
        for t in np.concatenate([np.linspace(first, last, 41), inside]):
            lo, __, *piece = segment(tl, float(t))
            k = int(np.searchsorted(t0, t, side="right")) - 1
            if lo == -np.inf:
                assert k == -1
            else:
                assert [t0[k]] + [v[k] for v in values] == piece

    def test_a_window_before_the_first_breakpoint_has_no_pieces(self):
        tl = _timeline(self.EVENTS)
        assert all(column.size == 0 for column in tl.pieces(0.0, 99.9))
        assert all(column.size == 0 for column in _timeline([]).pieces(
            -5.0, -1.0))

    def test_a_window_after_the_last_event_has_its_closing_piece(self):
        tl = _timeline(self.EVENTS)
        t0, *__ = tl.pieces(600.0, 900.0)
        assert t0.tolist() == [tl._times[-1]]

    def test_pieces_are_views_not_copies(self):
        tl = _timeline(self.EVENTS)
        compiled = (tl._times, tl._lat_val, tl._lat_slope, tl._loss_val,
                    tl._loss_slope)
        for column, whole in zip(tl.pieces(105.0, 130.0), compiled):
            assert column.size and np.shares_memory(column, whole)


class TestGenerateTimeline:
    def _gen(self, rng, horizon=10 * 86400.0, **overrides):
        kwargs = dict(short_events_per_day=100.0, long_events_per_day=1.0,
                      short_duration_mean_s=8.0, long_duration_mu=4.5,
                      long_duration_sigma=1.0, event_latency_mu=5.5,
                      event_latency_sigma=1.2, event_loss_mu=-3.5,
                      event_loss_sigma=1.0)
        kwargs.update(overrides)
        return generate_timeline(rng, horizon, **kwargs)

    def test_counts_scale_with_rate(self, rng):
        tl = self._gen(rng)
        short = int(np.sum(tl.durations < 30.0))
        # ~1000 short events expected over 10 days.
        assert 800 < short < 1200
        assert 3 < len(tl) - short < 30

    def test_rate_scale_multiplies_counts(self, rng):
        base = len(self._gen(np.random.default_rng(1)))
        scaled = len(self._gen(np.random.default_rng(1), rate_scale=3.0))
        assert scaled > 2.0 * base

    def test_short_events_stay_short(self, rng):
        tl = self._gen(rng, long_events_per_day=0.0)
        assert np.all(tl.durations < 30.0)

    def test_long_events_exceed_30s(self, rng):
        tl = self._gen(rng, short_events_per_day=0.0,
                       long_events_per_day=10.0)
        assert np.all(tl.durations >= 30.0)

    def test_latency_capped(self, rng):
        tl = self._gen(rng, event_latency_mu=12.0, severity_scale=5.0)
        assert np.all(tl.latency_adds <= MAX_EVENT_LATENCY_MS)

    def test_loss_capped(self, rng):
        tl = self._gen(rng, event_loss_mu=3.0, severity_scale=10.0)
        assert np.all(tl.loss_adds <= 0.95)

    def test_events_within_window(self, rng):
        draws = TimelineDraws(86400.0)
        draws.draw(rng, short_events_per_day=100.0, long_events_per_day=1.0,
                   short_duration_mean_s=8.0, long_duration_mu=4.5,
                   long_duration_sigma=1.0, event_latency_mu=5.5,
                   event_latency_sigma=1.2, event_loss_mu=-3.5,
                   event_loss_sigma=1.0)
        (tl,) = draws.compile()
        assert len(tl) and np.all((tl.starts >= 0.0) & (tl.starts < 86400.0))
        assert tl.horizon_s == 86400.0

    def test_rejects_non_positive_horizon(self, rng):
        with pytest.raises(ValueError):
            self._gen(rng, horizon=0.0)

    def test_deterministic_for_same_generator_state(self):
        a = self._gen(np.random.default_rng(42))
        b = self._gen(np.random.default_rng(42))
        np.testing.assert_array_equal(a.starts, b.starts)
        np.testing.assert_array_equal(a.latency_adds, b.latency_adds)
