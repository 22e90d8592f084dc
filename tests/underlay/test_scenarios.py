"""Tests for scripted underlay scenarios."""

import numpy as np
import pytest

from repro.underlay.linkstate import LinkType
from repro.underlay.scenarios import (inject_events, long_term_degradation,
                                      quiet_link,
                                      short_frequent_degradations)


def test_long_term_degradation_single_event():
    events = long_term_degradation(100.0, 400.0, latency_add_ms=500.0)
    assert len(events) == 1
    assert events[0].start == 100.0
    assert events[0].duration == 300.0


def test_long_term_rejects_empty_window():
    with pytest.raises(ValueError):
        long_term_degradation(100.0, 100.0)


def test_short_frequent_spacing():
    events = short_frequent_degradations(0.0, 1000.0, period_s=200.0,
                                         duration_s=10.0)
    assert len(events) == 5
    starts = [e.start for e in events]
    assert starts == [0.0, 200.0, 400.0, 600.0, 800.0]


def test_short_frequent_rejects_empty_window():
    with pytest.raises(ValueError):
        short_frequent_degradations(10.0, 10.0)


def test_inject_replaces_timeline(small_regions):
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.topology import build_underlay
    u = build_underlay(small_regions, UnderlayConfig(horizon_s=7200.0), seed=4)
    a, b = u.pairs[0]
    inject_events(u, a, b, LinkType.INTERNET,
                  long_term_degradation(1000.0, 2000.0,
                                        latency_add_ms=5000.0))
    link = u.link(a, b, LinkType.INTERNET)
    assert len(link.timeline) == 1
    assert float(link.latency_ms(1500.0)) > 4000.0


def test_inject_keep_existing_extends(small_regions):
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.topology import build_underlay
    u = build_underlay(small_regions, UnderlayConfig(horizon_s=7200.0), seed=4)
    a, b = u.pairs[0]
    before = len(u.link(a, b, LinkType.INTERNET).timeline)
    inject_events(u, a, b, LinkType.INTERNET,
                  long_term_degradation(1000.0, 2000.0), keep_existing=True)
    assert len(u.link(a, b, LinkType.INTERNET).timeline) == before + 1


def test_quiet_link_removes_all_events(small_regions):
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.topology import build_underlay
    u = build_underlay(small_regions, UnderlayConfig(horizon_s=7200.0), seed=4)
    a, b = u.pairs[1]
    quiet_link(u, a, b, LinkType.INTERNET)
    link = u.link(a, b, LinkType.INTERNET)
    assert len(link.timeline) == 0
    t = np.arange(0, 3600, 10.0)
    assert np.all(link.timeline.latency_add(t) == 0.0)


def test_scripted_change_reaches_already_evaluated_matrix_state(small_regions):
    """The event engine reads link state out of `BurstNoise` blocks; a
    timeline swapped after a block was evaluated must show up in that
    block's next read and in `snapshot`, at an instant already
    evaluated too."""
    from repro.dataplane.probing import BurstNoise
    from repro.sim.rng import RngStreams
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.topology import build_underlay
    u = build_underlay(small_regions, UnderlayConfig(horizon_s=7200.0), seed=4)
    a, b = u.pairs[0]
    link = u.link(a, b, LinkType.INTERNET)
    noise = BurstNoise(u, RngStreams(4), "probe", 1, 15, 0.4)
    k = noise.hops.index((a, b, LinkType.INTERNET))

    def read(t):
        latency, loss, __, __ = noise.at(t)
        return float(latency[k]), float(loss[k])
    # The first instant is a block of its own; the next opens a block
    # of the grid, which holds `t` before anything is swapped.
    read(1499.2)
    read(1499.2 + 0.4)
    t = 1499.2 + 0.4 + 0.4
    before = read(t)
    inject_events(u, a, b, LinkType.INTERNET,
                  long_term_degradation(1000.0, 2000.0,
                                        latency_add_ms=5000.0))
    degraded = (float(link.latency_ms(t)), float(link.loss_rate(t)))
    assert degraded[0] > before[0] + 4000.0
    assert read(t) == degraded
    assert u.snapshot(t).lookup(a, b, LinkType.INTERNET) == degraded
    quiet_link(u, a, b, LinkType.INTERNET)
    quiet = (float(link.latency_ms(t)), float(link.loss_rate(t)))
    assert quiet[0] < 4000.0
    assert read(t) == quiet
