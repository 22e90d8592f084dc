"""`Underlay.link_series`: many links over a time grid in one pass,
`==` to the scalar oracle (`tests/snapshots.py::ScalarLink`) per link."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.underlay.config import UnderlayConfig
from repro.underlay.events import DegradationEvent
from repro.underlay.linkstate import LinkType
from repro.underlay.planet import build_planet_underlay
from repro.underlay.scenarios import (inject_events, long_term_degradation,
                                      quiet_link)
from repro.underlay.topology import build_underlay
from tests.snapshots import ScalarLink

TIERS = (LinkType.INTERNET, LinkType.PREMIUM)


def all_hops(underlay):
    return [(a, b, lt) for (a, b) in underlay.pairs for lt in TIERS]


def assert_rows_equal_the_oracle(underlay, hops, times):
    lat, loss = underlay.link_series(hops, times)
    assert lat.shape == loss.shape == (len(hops), len(times))
    for h, hop in enumerate(hops):
        link = ScalarLink(underlay.link(*hop))
        np.testing.assert_array_equal(lat[h], link.latency_ms(times))
        np.testing.assert_array_equal(loss[h], link.loss_rate(times))


@pytest.mark.parametrize("t0, step, n", [
    (8 * 3600.0, 5.0, 60),        # an epoch on the evaluation grid
    (20 * 3600.0, 0.4, 750),      # an epoch on the burst grid
    (86400.0 + 1234.5, 0.4, 750),
], ids=["eval-grid", "burst-grid", "burst-grid-day-2"])
def test_paper_underlay_every_link(full_underlay, t0, step, n):
    times = t0 + np.arange(n) * step
    assert_rows_equal_the_oracle(full_underlay, all_hops(full_underlay),
                                     times)


def test_planet_underlay_sampled_links():
    planet = build_planet_underlay(
        50, seed=11, underlay_config=UnderlayConfig(horizon_s=900.0))
    hops = all_hops(planet)
    picked = [hops[i] for i in
              np.random.default_rng(0).choice(len(hops), 400, replace=False)]
    assert_rows_equal_the_oracle(planet, picked,
                                     300.0 + np.arange(60) * 5.0)


def test_inside_a_degradation_ramp(full_underlay):
    # Links with an event inside day 0, sampled at 0.1 s through the
    # ramp-up, hold and ramp-down of their first event.
    checked = 0
    for hop in all_hops(full_underlay):
        timeline = full_underlay.link(*hop).timeline
        inside = np.nonzero(timeline.starts + timeline.durations
                            < 86400.0)[0]
        if inside.size == 0:
            continue
        k = int(inside[0])
        start = float(timeline.starts[k])
        times = np.arange(max(0.0, start - 2.0),
                          start + float(timeline.durations[k]) + 2.0,
                          0.1)[:600]
        assert np.any(timeline.latency_add(times) > 0.0)
        assert_rows_equal_the_oracle(full_underlay, [hop], times)
        checked += 1
        if checked == 12:
            break
    assert checked == 12


def test_scripted_timelines_are_honoured(small_regions):
    u = build_underlay(small_regions, UnderlayConfig(horizon_s=7200.0),
                       seed=4)
    hops = all_hops(u)
    times = 1000.0 + np.arange(120) * 5.0
    before_lat, before_loss = u.link_series(hops, times)

    target = ("HGH", "SIN", LinkType.INTERNET)
    inject_events(u, *target, long_term_degradation(1100.0, 1400.0))
    quiet = ("FRA", "IAD", LinkType.PREMIUM)
    quiet_link(u, *quiet)

    assert_rows_equal_the_oracle(u, hops, times)
    lat, loss = u.link_series(hops, times)
    row = hops.index(target)
    assert np.max(lat[row] - before_lat[row]) > 500.0
    assert np.max(loss[row] - before_loss[row]) > 0.05
    untouched = [h for h, hop in enumerate(hops)
                 if hop not in (target, quiet)]
    np.testing.assert_array_equal(lat[untouched], before_lat[untouched])
    np.testing.assert_array_equal(loss[untouched], before_loss[untouched])


def test_past_the_horizon_is_an_error(small_underlay):
    hop = all_hops(small_underlay)[0]
    horizon = small_underlay.config.horizon_s
    small_underlay.link_series([hop], np.array([horizon - 10.0, horizon]))
    with pytest.raises(ValueError, match="exceeds the generated horizon"):
        small_underlay.link_series([hop],
                                   np.array([horizon - 10.0, horizon + 1.0]))
    with pytest.raises(ValueError, match="exceeds the generated horizon"):
        small_underlay.link(*hop).latency_ms(horizon + 1.0)


def test_an_unsorted_window_past_the_horizon_is_an_error_too(small_underlay):
    hop = all_hops(small_underlay)[0]
    horizon = small_underlay.config.horizon_s
    with pytest.raises(ValueError, match="exceeds the generated horizon"):
        small_underlay.link_series([hop],
                                   np.array([5.0, horizon + 1.0, 2.0]))


def test_times_are_one_axis(small_underlay):
    hop = all_hops(small_underlay)[0]
    for times in (5.0, np.zeros((2, 3))):
        with pytest.raises(ValueError, match="1-d"):
            small_underlay.link_series([hop], times)


def test_unsorted_repeated_and_single_instants(full_underlay):
    hops = all_hops(full_underlay)[:40]
    grid = 20 * 3600.0 + np.arange(200) * 0.4
    lat, loss = full_underlay.link_series(hops, grid)
    rng = np.random.default_rng(5)
    for pick in (rng.permutation(grid.size),          # unsorted
                 np.arange(grid.size)[::-1],          # descending
                 rng.integers(0, grid.size, 300),     # repeated, unsorted
                 np.repeat(np.arange(0, 200, 7), 3),  # repeated, sorted
                 np.array([17]), np.array([], dtype=int)):
        got_lat, got_loss = full_underlay.link_series(hops, grid[pick])
        np.testing.assert_array_equal(got_lat, lat[:, pick])
        np.testing.assert_array_equal(got_loss, loss[:, pick])
    got_lat, __ = full_underlay.link_series(hops, list(grid[[3, 1, 2]]))
    np.testing.assert_array_equal(got_lat, lat[:, [3, 1, 2]])


def scripted(horizon_s, small_regions, events):
    """A 4-region underlay whose HGH->SIN Internet link carries exactly
    `events`; returns it, that hop and its timeline's breakpoints."""
    u = build_underlay(small_regions, UnderlayConfig(horizon_s=horizon_s),
                       seed=4)
    hop = ("HGH", "SIN", LinkType.INTERNET)
    inject_events(u, *hop, events)
    return u, hop, u.link(*hop).timeline._times


def test_an_instant_on_a_breakpoint_takes_the_piece_that_starts_there(
        small_regions):
    # A zero-length event's corners fall out of order (its ramps are
    # floored at 1 us), so the pieces around it are *not* continuous:
    # which side of a breakpoint an instant lands on changes the value.
    u, hop, breakpoints = scripted(1000.0, small_regions, [
        DegradationEvent(100.0, 20.0, 500.0, 0.1),
        DegradationEvent(400.0, 0.0, 800.0, 0.3),
        DegradationEvent(600.0, 2e-6, 300.0, 0.2),
        DegradationEvent(117.0, 30.0, 100.0, 0.0)])
    around = np.concatenate([breakpoints,
                             np.nextafter(breakpoints, -np.inf),
                             np.nextafter(breakpoints, np.inf)])
    assert_rows_equal_the_oracle(u, [hop], np.sort(around))
    assert_rows_equal_the_oracle(u, [hop], around)
    lat, __ = u.link_series([hop], np.array([100.0, 103.0, 99.0]))
    assert lat[0, 1] - lat[0, 0] > 400.0      # the hold starts *at* 103
    # ... and at some breakpoint here the piece that ends gives another
    # value than the piece that starts, so the side is observable.
    timeline = u.link(*hop).timeline
    ending = np.maximum(timeline._lat_val[:-1] + timeline._lat_slope[:-1]
                        * np.diff(breakpoints), 0.0)
    assert np.any(ending != timeline.latency_add(breakpoints[1:]))


def test_before_the_first_breakpoint_adds_nothing(small_regions):
    u, hop, breakpoints = scripted(
        1000.0, small_regions, [DegradationEvent(500.0, 20.0, 500.0, 0.1)])
    first = float(breakpoints[0])
    times = np.array([0.0, 250.0, np.nextafter(first, -np.inf), first,
                      510.0])
    lat, loss = u.link_series([hop], times)
    assert_rows_equal_the_oracle(u, [hop], times)
    quiet_link(u, *hop)
    quiet_lat, quiet_loss = u.link_series([hop], times)
    np.testing.assert_array_equal(lat[0, :4], quiet_lat[0, :4])
    np.testing.assert_array_equal(loss[0, :4], quiet_loss[0, :4])
    assert lat[0, 4] > quiet_lat[0, 4] + 400.0


def test_timelines_outside_the_window_cost_no_table_rows(small_regions,
                                                         monkeypatch):
    from repro.underlay.events import EventTimeline
    u, hop, breakpoints = scripted(
        1000.0, small_regions, [DegradationEvent(500.0, 20.0, 500.0, 0.1)])
    assert breakpoints.tolist() == [500.0, 503.0, 517.0, 520.0]
    table_rows = []
    pieces = EventTimeline.pieces

    def counted(self, first, last):
        window = pieces(self, first, last)
        table_rows.append(window[0].size)
        return window

    monkeypatch.setattr(EventTimeline, "pieces", counted)
    quiet = ("FRA", "IAD", LinkType.PREMIUM)
    quiet_link(u, *quiet)
    for window, rows in [((100.0, 400.0), 0),     # all after the window
                         ((100.0, 500.0), 1), ((450.0, 600.0), 4),
                         ((510.0, 519.0), 2), ((600.0, 900.0), 1)]:
        del table_rows[:]
        lat, __ = u.link_series([quiet, hop, hop],
                                np.linspace(*window, 50))
        # The quiet link is never asked, each mention of the other once.
        assert table_rows == [rows, rows]
        assert lat.shape == (3, 50)


# ------------------------------------------------------- generated inputs
HORIZON_S = 1000.0
SCRIPTED_HOPS = (("HGH", "SIN", LinkType.INTERNET),
                 ("FRA", "IAD", LinkType.PREMIUM),
                 ("SIN", "HGH", LinkType.INTERNET),
                 ("IAD", "HGH", LinkType.PREMIUM))


def events_between(lo, hi):
    return st.lists(
        st.builds(DegradationEvent,
                  start=st.floats(lo, hi),
                  # 0, 1 and 2 us: the ramp floor makes the corners of
                  # such an event cross (see the breakpoint test above).
                  duration=st.one_of(st.sampled_from([0.0, 1e-6, 2e-6]),
                                     st.floats(0.0, 100.0)),
                  latency_add_ms=st.floats(0.0, 2000.0),
                  loss_add=st.floats(0.0, 0.95)),
        max_size=6)


#: None at all, anywhere, all before / after a mid-horizon window, and
#: bunched so that they overlap.
event_sets = st.one_of(st.just([]), events_between(0.0, 900.0),
                       events_between(0.0, 150.0),
                       events_between(800.0, 900.0),
                       events_between(400.0, 420.0))


def grids(breakpoints):
    """Sub-second uniform grids, free instants (unsorted, repeated,
    whole seconds, exactly on a breakpoint), both at once, or a few
    instants of a mid-horizon window."""
    uniform = st.builds(lambda t0, step, n: t0 + np.arange(n) * step,
                        st.floats(0.0, 600.0),
                        st.sampled_from([0.1, 0.4, 1.0, 5.0]),
                        st.integers(1, 60))
    instant = st.one_of(st.floats(0.0, HORIZON_S),
                        st.integers(0, int(HORIZON_S)).map(float),
                        *([st.sampled_from(breakpoints)]
                          if breakpoints else []))
    free = st.lists(instant, max_size=40).map(
        lambda ts: np.array(ts, dtype=float))
    window = st.lists(st.floats(300.0, 600.0), max_size=20).map(
        lambda ts: np.array(ts, dtype=float))
    return st.one_of(uniform, free, window,
                     st.tuples(free, uniform).map(np.concatenate))


@pytest.fixture(scope="module")
def generated_underlay(small_regions):
    return build_underlay(small_regions,
                          UnderlayConfig(horizon_s=HORIZON_S), seed=9)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_generated_events_and_grids_equal_the_link_processes(
        generated_underlay, data):
    u = generated_underlay
    breakpoints = []
    for hop in SCRIPTED_HOPS:
        inject_events(u, *hop, data.draw(event_sets, label=str(hop[:2])))
        if len(u.link(*hop).timeline):
            breakpoints.extend(
                float(t) for t in u.link(*hop).timeline._times
                if 0.0 <= t <= HORIZON_S)
    times = data.draw(grids(breakpoints), label="times")
    hops = list(SCRIPTED_HOPS) + all_hops(u)[:6]
    lat, loss = u.link_series(hops, times)
    assert lat.shape == loss.shape == (len(hops), times.size)
    for h, hop in enumerate(hops):
        link = ScalarLink(u.link(*hop))
        assert np.array_equal(lat[h], link.latency_ms(times)), hop
        assert np.array_equal(loss[h], link.loss_rate(times)), hop


def test_a_block_of_one_is_a_row_of_the_block(small_underlay):
    hops = all_hops(small_underlay)
    times = 600.0 + np.arange(75) * 0.4
    lat, loss = small_underlay.link_series(hops, times)
    for h in (0, 5, len(hops) - 1):
        one_lat, one_loss = small_underlay.link_series([hops[h]], times)
        np.testing.assert_array_equal(one_lat[0], lat[h])
        np.testing.assert_array_equal(one_loss[0], loss[h])


def test_repeated_and_empty_hop_lists(small_underlay):
    hop = all_hops(small_underlay)[3]
    times = np.arange(10.0)
    lat, __ = small_underlay.link_series([hop, hop], times)
    np.testing.assert_array_equal(lat[0], lat[1])
    lat, loss = small_underlay.link_series([], times)
    assert lat.shape == loss.shape == (0, 10)


def test_links_that_do_not_exist_are_key_errors(small_underlay):
    for hop in (("HGH", "NOPE", LinkType.PREMIUM),
                ("HGH", "HGH", LinkType.PREMIUM)):
        with pytest.raises(KeyError):
            small_underlay.link_series([hop], np.arange(3.0))
        with pytest.raises(KeyError):
            small_underlay.link(*hop)
