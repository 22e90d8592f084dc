"""Tests for per-link latency/loss processes."""

import numpy as np
import pytest

from repro.underlay.events import DegradationEvent, EventTimeline
from repro.underlay.linkstate import LinkProcess, LinkType, busy_factor
from repro.underlay.regions import default_regions


def _make_link(events=(), horizon=86400.0, **overrides):
    regions = default_regions()
    kwargs = dict(base_latency_ms=100.0, jitter_sigma=0.05,
                  diurnal_latency_amp=0.2, base_loss=0.001,
                  diurnal_loss_amp=0.002, noise_seed=99)
    kwargs.update(overrides)
    timeline = EventTimeline.from_events(list(events), horizon)
    return LinkProcess(regions[0], regions[4], LinkType.INTERNET,
                       timeline=timeline, **kwargs)


class TestBusyFactor:
    def test_range(self):
        h = np.linspace(0, 24, 1000)
        b = busy_factor(h)
        assert np.all(b >= 0.0) and np.all(b <= 1.0)

    def test_peak_mid_afternoon(self):
        assert busy_factor(15.5) == pytest.approx(1.0)

    def test_quiet_overnight(self):
        assert busy_factor(3.0) < 0.05

    def test_periodic(self):
        assert busy_factor(1.0) == pytest.approx(busy_factor(25.0))

    def test_a_scalar_hour_equals_its_array_element(self):
        """Regression: squaring a NumPy scalar goes through libm `pow`,
        an array multiplies — ~1 in 1 500 hours read an ulp apart, so a
        scalar `LinkProcess` call left the array engines' bits."""
        hours = np.random.default_rng(17).uniform(0.0, 24.0, 50_000)
        assert [float(busy_factor(h)) for h in hours.tolist()] \
            == busy_factor(hours).tolist()


class TestLinkProcess:
    def test_latency_near_base_without_events(self):
        link = _make_link(jitter_sigma=0.0, diurnal_latency_amp=0.0)
        t = np.arange(0, 3600, 10.0)
        np.testing.assert_allclose(link.latency_ms(t), 100.0)

    def test_loss_near_base_without_events(self):
        link = _make_link(diurnal_loss_amp=0.0)
        t = np.arange(0, 3600, 10.0)
        loss = link.loss_rate(t)
        # Lognormal jitter around base loss.
        assert 0.0005 < loss.mean() < 0.002

    def test_event_raises_latency(self):
        link = _make_link([DegradationEvent(1000.0, 60.0, 900.0, 0.2)],
                          jitter_sigma=0.0, diurnal_latency_amp=0.0)
        assert float(link.latency_ms(1030.0)) == pytest.approx(1000.0)

    def test_event_raises_loss(self):
        link = _make_link([DegradationEvent(1000.0, 60.0, 900.0, 0.2)])
        assert float(link.loss_rate(1030.0)) > 0.15

    def test_loss_clipped_to_unit_interval(self):
        link = _make_link([DegradationEvent(0.0, 100.0, 0.0, 0.95)],
                          base_loss=0.5)
        t = np.arange(0, 100, 1.0)
        assert np.all(link.loss_rate(t) <= 1.0)

    def test_diurnal_latency_follows_source_local_time(self):
        link = _make_link(jitter_sigma=0.0, diurnal_latency_amp=0.5)
        # Source HGH is UTC+8: local 15:30 is 07:30 UTC.
        peak = float(link.latency_ms(7.5 * 3600.0))
        trough = float(link.latency_ms(19.0 * 3600.0))  # local 03:00
        assert peak > trough * 1.3

    def test_sample_matches_series(self):
        """A scalar instant reads the bits of its element of `series`."""
        link = _make_link()
        times, lat, loss = link.series(0.0, 1000.0, 10.0)
        assert times[50] == 500.0
        assert float(link.latency_ms(500.0)) == lat[50]
        assert float(link.loss_rate(500.0)) == loss[50]

    def test_series_shape_and_grid(self):
        link = _make_link()
        times, lat, loss = link.series(0.0, 100.0, 10.0)
        assert times.shape == lat.shape == loss.shape == (10,)

    def test_series_rejects_empty_window(self):
        with pytest.raises(ValueError):
            _make_link().series(10.0, 10.0)

    def test_bad_fraction_counts_event_time(self):
        link = _make_link([DegradationEvent(0.0, 36000.0, 2000.0, 0.0)],
                          jitter_sigma=0.0, diurnal_latency_amp=0.0,
                          diurnal_loss_amp=0.0)
        frac_lat, __ = link.bad_fraction(0.0, 86400.0, 60.0)
        assert frac_lat == pytest.approx(36000.0 / 86400.0, abs=0.02)

    def test_quality_series_is_boolean(self):
        q = _make_link().quality_series(0.0, 600.0, 10.0)
        assert q.dtype == bool

    def test_horizon_exceeded_raises(self):
        link = _make_link(horizon=1000.0)
        with pytest.raises(ValueError):
            link.latency_ms(2000.0)

    def test_determinism(self):
        a = _make_link().latency_ms(np.arange(0, 100, 1.0))
        b = _make_link().latency_ms(np.arange(0, 100, 1.0))
        np.testing.assert_array_equal(a, b)

    def test_invalid_base_latency_rejected(self):
        with pytest.raises(ValueError):
            _make_link(base_latency_ms=0.0)

    def test_invalid_base_loss_rejected(self):
        with pytest.raises(ValueError):
            _make_link(base_loss=1.5)
