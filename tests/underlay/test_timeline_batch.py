"""The batched timeline compile against the per-timeline oracle in
`tests/underlay/timeline_oracle.py`: every compiled array and every
read, bit for bit, over drawn batches that mix event counts, tie starts
and breakpoints, and hold events shorter than the ramp floor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.underlay.events import (EventTimeline, TimelineDraws,
                                   generate_timeline)
from tests.underlay.timeline_oracle import (ScalarTimeline, segment,
                                            scalar_generate_timeline)

#: Every array a compiled timeline holds, events first.
ARRAYS = ("starts", "durations", "latency_adds", "loss_adds", "_times",
          "_lat_val", "_lat_slope", "_loss_val", "_loss_slope")

#: Starts and durations on a coarse grid, so starts tie, an event's end
#: lands on another's start, and ramps tie; durations of 0 and 1e-7 s
#: ramp at the 1e-6 s floor.
EVENT = st.tuples(
    st.integers(0, 12).map(float),
    st.sampled_from([0.0, 1e-7, 2e-6, 1.0, 2.0, 4.0, 10.0, 40.0]),
    st.sampled_from([0.0, 1.0, 3.0, 250.0, 1234.5]),
    st.sampled_from([0.0, 1e-4, 0.02, 0.3]))
TIMELINE = st.lists(EVENT, max_size=24)


def _bits(array) -> bytes:
    array = np.asarray(array)
    return array.dtype.str.encode() + repr(array.shape).encode() \
        + np.ascontiguousarray(array).tobytes()


def assert_same_timeline(got, want):
    """Bit-equal compiled arrays, horizon and reads."""
    for name in ARRAYS:
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert got.horizon_s == want.horizon_s
    # Every breakpoint of a short timeline, about 60 of a long one.
    times = want._times[::max(1, want._times.size // 60)]
    probes = np.concatenate([times, times - 0.5, times + 1e-7,
                             want._times[-1:], [-1.0]])
    for t in probes.tolist():
        assert _bits(segment(got, t)) == _bits(segment(want, t))
    first, last = float(probes.min()), float(probes.max())
    for window in ((first, last), (first, first), (times[0], times[-1]),
                   (last - 0.5, last + 5.0)):
        for a, b in zip(got.pieces(*window), want.pieces(*window)):
            assert _bits(a) == _bits(b)
    assert _bits(got.latency_add(probes)) == _bits(want.latency_add(probes))
    assert _bits(got.loss_add(probes)) == _bits(want.loss_add(probes))


def _flat(timelines):
    counts = np.array([len(events) for events in timelines], dtype=np.intp)
    columns = [np.array([e[c] for events in timelines for e in events],
                        dtype=float) for c in range(4)]
    return counts, columns


@settings(max_examples=200, deadline=None)
@given(st.lists(TIMELINE, min_size=1, max_size=8),
       st.sampled_from([30.0, 86400.0]))
def test_batch_equals_the_scalar_oracle(timelines, horizon_s):
    # The same event lists twice over make every count a block of two.
    timelines = timelines + timelines[::-1]
    counts, columns = _flat(timelines)
    batch = EventTimeline.batch(counts, *columns, horizon_s)
    assert len(batch) == len(timelines)
    for got, events in zip(batch, timelines):
        want = ScalarTimeline(*(np.array([e[c] for e in events], dtype=float)
                                for c in range(4)), horizon_s)
        assert_same_timeline(got, want)


@settings(max_examples=100, deadline=None)
@given(TIMELINE)
def test_a_timeline_is_the_batch_of_one(events):
    columns = [np.array([e[c] for e in events], dtype=float)
               for c in range(4)]
    assert_same_timeline(EventTimeline(*columns, 500.0),
                         ScalarTimeline(*columns, 500.0))


def test_rows_of_one_count_do_not_share_sums():
    """Two timelines in one block: the second's slopes and values start
    from its own first breakpoint, not from the first's running sum."""
    a = [(0.0, 10.0, 100.0, 0.1), (5.0, 10.0, 50.0, 0.0)]
    b = [(3.0, 4.0, 7.0, 0.2), (3.0, 4.0, 9.0, 0.05)]
    counts, columns = _flat([a, b])
    for got, events in zip(EventTimeline.batch(counts, *columns, 100.0),
                           (a, b)):
        assert_same_timeline(got, ScalarTimeline(
            *(np.array([e[c] for e in events]) for c in range(4)), 100.0))


def test_tied_bounds_keep_their_stable_order():
    """Many events on a few instants: breakpoints tie across events and
    with each other's starts; the stable order decides every partial
    slope between the ties."""
    rng = np.random.default_rng(5)
    events = [(float(rng.integers(0, 4)), float(rng.choice([0.0, 1.0, 2.0])),
               float(rng.integers(1, 100)), float(rng.integers(1, 9)) / 100)
              for __ in range(64)]
    counts, columns = _flat([events, events[::-1], events])
    for got, order in zip(EventTimeline.batch(counts, *columns, 100.0),
                          (events, events[::-1], events)):
        assert_same_timeline(got, ScalarTimeline(
            *(np.array([e[c] for e in order]) for c in range(4)), 100.0))


#: Drawn per-link event parameters, Internet- and premium-like.
LINK = st.fixed_dictionaries({
    "short_events_per_day": st.sampled_from([0.0, 4.0, 370.0, 2000.0]),
    "long_events_per_day": st.sampled_from([0.0, 0.05, 2.8, 40.0]),
    "short_duration_mean_s": st.sampled_from([5.0, 8.0]),
    "long_duration_mu": st.sampled_from([4.0, 4.6]),
    "long_duration_sigma": st.sampled_from([0.8, 1.2]),
    "event_latency_mu": st.sampled_from([3.2, 5.9, 12.0]),
    "event_latency_sigma": st.sampled_from([0.7, 1.4]),
    "event_loss_mu": st.sampled_from([-5.2, -3.6, 3.0]),
    "event_loss_sigma": st.sampled_from([0.8, 1.1]),
    "rate_scale": st.floats(0.5, 8.0),
    "severity_scale": st.floats(1.0, 10.0),
})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(LINK, st.integers(0, 2**32 - 1)), min_size=1,
                max_size=6),
       st.sampled_from([600.0, 3600.0, 2 * 86400.0]),
       st.sampled_from([0.0, 86400.0, 1234.5]))
def test_draws_equal_the_scalar_generator(links, horizon_s, start_offset):
    """Many links drawn into one `TimelineDraws` and compiled at once
    equal one scalar `generate_timeline` per link: same draws, same
    clips and scaling, short events before long, shifted by the
    offset."""
    draws = TimelineDraws(horizon_s, start_offset)
    for params, seed in links:
        draws.draw(np.random.default_rng(seed), **params)
    for got, (params, seed) in zip(draws.compile(), links):
        assert_same_timeline(got, scalar_generate_timeline(
            np.random.default_rng(seed), horizon_s,
            start_offset=start_offset, **params))


def test_generate_timeline_is_a_draw_of_one():
    params = dict(short_events_per_day=370.0, long_events_per_day=2.8,
                  short_duration_mean_s=8.0, long_duration_mu=4.6,
                  long_duration_sigma=1.2, event_latency_mu=5.9,
                  event_latency_sigma=1.4, event_loss_mu=-3.6,
                  event_loss_sigma=1.1, rate_scale=2.5, severity_scale=1.3)
    assert_same_timeline(
        generate_timeline(np.random.default_rng(9), 86400.0,
                          start_offset=60.0, **params),
        scalar_generate_timeline(np.random.default_rng(9), 86400.0,
                                 start_offset=60.0, **params))


def test_draws_reject_a_non_positive_horizon():
    with pytest.raises(ValueError, match="horizon"):
        TimelineDraws(0.0)
