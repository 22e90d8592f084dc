"""Tests for per-link latency/loss processes: the link model as the
`LinkProcess` view of a two-region `Underlay` shows it, and the view
against the scalar oracle in `tests/snapshots.py`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.underlay.config import UnderlayConfig
from repro.underlay.events import DegradationEvent, EventTimeline
from repro.underlay.linkstate import LinkType, busy_factor
from repro.underlay.regions import default_regions
from repro.underlay.topology import build_underlay
from tests.snapshots import ScalarLink


def _make_link(events=(), horizon=86400.0, **overrides):
    """The HGH -> region 4 Internet link of a two-region underlay, its
    parameters overwritten with these (and `overrides`)."""
    src, dst = default_regions()[0], default_regions()[4]
    u = build_underlay([src, dst], UnderlayConfig(horizon_s=horizon), seed=3)
    params = dict(base_latency_ms=100.0, jitter_sigma=0.05,
                  diurnal_latency_amp=0.2, base_loss=0.001,
                  diurnal_loss_amp=0.002, noise_seed=99)
    params.update(overrides)
    u.table.set_links([(src.code, dst.code, LinkType.INTERNET)],
                      timelines=[EventTimeline.from_events(list(events),
                                                           horizon)],
                      **params)
    u.table.validate()
    return u.link(src.code, dst.code, LinkType.INTERNET)


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
        an array multiplies — ~1 in 1 500 hours read an ulp apart, so
        the scalar oracle left the table's bits."""
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
        with pytest.raises(ValueError, match="base latency"):
            _make_link(base_latency_ms=0.0)

    def test_invalid_base_loss_rejected(self):
        with pytest.raises(ValueError, match="base loss"):
            _make_link(base_loss=1.5)


# ------------------------------------------------- the view vs the oracle
HORIZON_S = 3600.0


def _instants():
    """0-d, sorted, repeated or empty instants in the horizon (whole
    seconds, so second boundaries, drawn too)."""
    instant = st.one_of(st.floats(0.0, HORIZON_S),
                        st.integers(0, int(HORIZON_S)).map(float))
    many = st.lists(instant, max_size=30)
    return st.one_of(
        instant.map(np.float64),
        many.map(lambda ts: np.sort(np.array(ts, dtype=float))),
        st.lists(st.sampled_from([0.0, 17.4, 17.9, 1800.0, HORIZON_S]),
                 max_size=12).map(lambda ts: np.sort(np.array(ts,
                                                            dtype=float))),
        st.just(np.array([], dtype=float)))


_events = st.lists(
    st.builds(DegradationEvent, start=st.floats(0.0, HORIZON_S),
              duration=st.floats(0.0, 600.0),
              latency_add_ms=st.floats(0.0, 2000.0),
              loss_add=st.floats(0.0, 0.95)),
    max_size=5)


def _assert_view_equals_oracle(link, t):
    oracle = ScalarLink(link)
    for got, want in ((link.latency_ms(t), oracle.latency_ms(t)),
                      (link.loss_rate(t), oracle.loss_rate(t))):
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(t)
        assert np.array_equal(got, want), t


@pytest.fixture(scope="module")
def hops(small_regions):
    """The links of a fresh underlay like the one each example builds:
    (those with events, those without)."""
    u = build_underlay(small_regions, UnderlayConfig(horizon_s=HORIZON_S),
                       seed=5)
    every = [(a, b, lt) for (a, b) in u.pairs for lt in LinkType]
    with_events = [hop for hop in every if len(u.link(*hop).timeline)]
    without = [hop for hop in every if hop not in with_events]
    assert with_events and without
    return with_events, without


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_view_equals_the_scalar_oracle(small_regions, hops, data):
    """A link with events and one without, any instants, before and
    after their timelines are swapped; past the horizon both raise."""
    u = build_underlay(small_regions, UnderlayConfig(horizon_s=HORIZON_S),
                       seed=5)
    for kind, candidates in zip(("with events", "without"), hops):
        hop = data.draw(st.sampled_from(candidates), label=kind)
        link = u.link(*hop)
        _assert_view_equals_oracle(link, data.draw(_instants(),
                                                   label="before"))

        events = data.draw(_events, label="events")
        u.set_timeline(*hop, EventTimeline.from_events(events, HORIZON_S))
        assert len(link.timeline) == len(events)
        _assert_view_equals_oracle(link, data.draw(_instants(),
                                                   label="after"))

        past = np.append(data.draw(_instants(), label="past"),
                         data.draw(st.floats(HORIZON_S + 0.5,
                                             2 * HORIZON_S)))
        for evaluate in (link.latency_ms, link.loss_rate,
                         ScalarLink(link).latency_ms):
            with pytest.raises(ValueError,
                               match="exceeds the generated horizon"):
                evaluate(past)
