"""`Underlay.link_series`: many links over a time grid in one pass,
`==` to the per-link `LinkProcess` calls it replaces in the grid engine."""

import numpy as np
import pytest

from repro.underlay.config import UnderlayConfig
from repro.underlay.linkstate import LinkType
from repro.underlay.planet import build_planet_underlay
from repro.underlay.scenarios import (inject_events, long_term_degradation,
                                      quiet_link)
from repro.underlay.topology import build_underlay

TIERS = (LinkType.INTERNET, LinkType.PREMIUM)


def all_hops(underlay):
    return [(a, b, lt) for (a, b) in underlay.pairs for lt in TIERS]


def assert_rows_equal_link_processes(underlay, hops, times):
    lat, loss = underlay.link_series(hops, times)
    assert lat.shape == loss.shape == (len(hops), len(times))
    for h, hop in enumerate(hops):
        link = underlay.link(*hop)
        np.testing.assert_array_equal(lat[h], link.latency_ms(times))
        np.testing.assert_array_equal(loss[h], link.loss_rate(times))


@pytest.mark.parametrize("t0, step, n", [
    (8 * 3600.0, 5.0, 60),        # an epoch on the evaluation grid
    (20 * 3600.0, 0.4, 750),      # an epoch on the burst grid
    (86400.0 + 1234.5, 0.4, 750),
], ids=["eval-grid", "burst-grid", "burst-grid-day-2"])
def test_paper_underlay_every_link(full_underlay, t0, step, n):
    times = t0 + np.arange(n) * step
    assert_rows_equal_link_processes(full_underlay, all_hops(full_underlay),
                                     times)


def test_planet_underlay_sampled_links():
    planet = build_planet_underlay(
        50, seed=11, underlay_config=UnderlayConfig(horizon_s=900.0))
    hops = all_hops(planet)
    picked = [hops[i] for i in
              np.random.default_rng(0).choice(len(hops), 400, replace=False)]
    assert_rows_equal_link_processes(planet, picked,
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
        assert_rows_equal_link_processes(full_underlay, [hop], times)
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

    assert_rows_equal_link_processes(u, hops, times)
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
