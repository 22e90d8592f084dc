"""`BurstNoise` reads the event engine's truth and draws out of blocks
of instants; every read must equal the per-instant body it replaced
(`tests/dataplane/burst_oracle.py`) bit for bit, whatever came before.

The underlays are small (2-5 regions) with dense degradation events,
so a 30 s block crosses ramps and breakpoints; the generated histories
walk probe and measure readers interleaved as the engine steps them
(repeated addition, probes first at a shared instant), from starts at
``8 h + 0.4 k``, on and beside whole seconds and anywhere, jump back
and forth, read off-grid one-offs, swap a timeline between two reads
of one block, and run into the horizon.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.dataplane.cluster import probe_noise
from repro.dataplane.config import MonitoringConfig
from repro.dataplane.probing import BLOCK_ELEMENTS, BurstNoise
from repro.experiments.base import planet_underlay
from repro.sim.rng import RngStreams
from repro.traffic.demand import DemandModel
from repro.underlay.config import UnderlayConfig
from repro.underlay.events import DegradationEvent
from repro.underlay.regions import default_regions
from repro.underlay.scenarios import inject_events
from repro.underlay.topology import build_underlay
from tests.dataplane.burst_oracle import InstantNoise

HORIZON_S = 9 * 3600.0 + 600.0
_UNDERLAYS = {}


def dense_underlay(regions: int, seed: int):
    """`regions` regions whose links degrade every minute or so."""
    key = (regions, seed)
    if key not in _UNDERLAYS:
        config = UnderlayConfig(horizon_s=HORIZON_S)
        config.internet.short_events_per_day = 1500.0
        config.premium.short_events_per_day = 400.0
        _UNDERLAYS[key] = build_underlay(default_regions()[:regions], config,
                                         seed=seed)
    return _UNDERLAYS[key]


class CountingNoise(BurstNoise):
    """A reader that counts the blocks it evaluates."""

    blocks = 0

    def _fill(self, now):
        self.blocks += 1
        super()._fill(now)


def assert_reads_the_oracle(noise, oracle, t):
    try:
        want = oracle.at(t)
    except ValueError as error:
        assert "exceeds the generated horizon" in str(error)
        with pytest.raises(ValueError, match="exceeds the generated horizon"):
            noise.at(t)
        return
    got = noise.at(t)
    assert len(got) == len(want) == 4
    for part, expected in zip(got, want):
        assert part.shape == expected.shape and part.dtype == expected.dtype
        assert part.tobytes() == np.ascontiguousarray(expected).tobytes(), t
        assert not part.flags.writeable


whole_seconds = st.integers(1, int(HORIZON_S) - 300)
starts = st.one_of(
    st.integers(0, 2000).map(lambda k: 8 * 3600.0 + 0.4 * k),
    whole_seconds.flatmap(lambda s: st.sampled_from(
        [float(s), float(np.nextafter(s, -np.inf)),
         float(np.nextafter(s, np.inf))])),
    st.floats(0.0, HORIZON_S - 300.0))
swaps = st.none() | st.tuples(st.integers(0, 199), st.integers(0, 39),
                              st.floats(-20.0, 40.0), st.floats(0.5, 60.0))
walks = st.tuples(st.just("walk"), starts, st.integers(1, 200), swaps)
one_offs = st.tuples(st.just("at"), st.booleans(),
                     st.floats(0.0, HORIZON_S))
tails = st.tuples(st.just("tail"), st.integers(0, 100))


def walk(readers, start, probes, swap=None):
    """The engine's instants from `start`: a probe every 0.4 s and a
    measurement tick every second after it, each by repeated addition,
    in time order (the probe first at a shared instant); `swap` =
    (probe step, link, offset, duration) scripts an event there."""
    (probe, probe_oracle), (measure, measure_oracle) = readers
    t_probe, t_measure = start, start + measure.interval_s
    for step in range(probes):
        while t_measure < t_probe:
            assert_reads_the_oracle(measure, measure_oracle, t_measure)
            t_measure = t_measure + measure.interval_s
        if swap is not None and step == swap[0]:
            __, link, offset, duration = swap
            a, b, link_type = probe.hops[link % len(probe.hops)]
            inject_events(probe.underlay, a, b, link_type,
                          [DegradationEvent(max(t_probe + offset, 0.0),
                                            duration, 800.0, 0.3)],
                          keep_existing=True)
        assert_reads_the_oracle(probe, probe_oracle, t_probe)
        t_probe = t_probe + probe.interval_s


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(regions=st.integers(2, 5), seed=st.integers(0, 1),
       history=st.lists(st.one_of(walks, one_offs, tails), min_size=1,
                        max_size=6))
def test_every_read_equals_the_per_instant_body(regions, seed, history):
    underlay = dense_underlay(regions, seed)
    saved = dict(underlay.table.timelines)
    streams = RngStreams(seed)
    readers = [(noise, InstantNoise(noise)) for noise in (
        CountingNoise(underlay, streams, "probe", 2, 15, 0.4),
        CountingNoise(underlay, streams, "measure", 1, 50, 1.0))]
    try:
        for event in history:
            if event[0] == "walk":
                __, start, probes, swap = event
                before = [noise.blocks for noise, __ in readers]
                walk(readers, start, probes, swap)
                if swap is None:
                    # A walk opens each reader's grid with a block of
                    # its first instant, then fills whole blocks.
                    probe = readers[0][0]
                    assert probe.blocks - before[0] <= 2 + math.ceil(
                        probes / probe.length)
            elif event[0] == "at":
                __, measuring, t = event
                assert_reads_the_oracle(*readers[measuring], t)
            else:
                # A run into the horizon: its blocks are cut there, and
                # the first instant past it raises.
                walk(readers, underlay.table.horizon_s - 0.4 * event[1], 160)
    finally:
        for (a, b, link_type), row in underlay.table.rows.items():
            if underlay.table.timelines[row] is not saved[row]:
                underlay.set_timeline(a, b, link_type, saved[row])


def test_a_block_crosses_breakpoints_and_a_swap_lands_inside_one():
    """The histories reach what they are meant to: a block of the whole
    length whose instants lie on different pieces of some link, and a
    swap read inside a block evaluated before it."""
    underlay = dense_underlay(3, 0)
    noise = CountingNoise(underlay, RngStreams(0), "probe", 2, 15, 0.4)
    oracle = InstantNoise(noise)
    instants = [8 * 3600.0]
    for __ in range(noise.length):
        instants.append(instants[-1] + 0.4)
    for t in instants:
        assert_reads_the_oracle(noise, oracle, t)
    assert noise.blocks == 2 and len(noise._rows) == noise.length
    pieces = [[int(np.searchsorted(timeline._times, t, side="right"))
               for timeline in underlay.table.timelines.values()]
              for t in instants[1:]]
    assert pieces[0] != pieces[-1]
    a, b, link_type = noise.hops[0]
    saved = underlay.link(a, b, link_type).timeline
    before = float(noise.at(instants[10])[0][0])
    try:
        inject_events(underlay, a, b, link_type,
                      [DegradationEvent(instants[5], 10.0, 800.0, 0.3)],
                      keep_existing=True)
        assert_reads_the_oracle(noise, oracle, instants[10])
        assert noise.at(instants[10])[0][0] > before + 400.0
    finally:
        underlay.set_timeline(a, b, link_type, saved)


def test_a_block_stays_within_the_element_budget():
    """At 100 regions a block is a few instants; each of its arrays
    holds at most `BLOCK_ELEMENTS` elements."""
    underlay = planet_underlay(100, seed=7)
    readers = (probe_noise(underlay, MonitoringConfig(), RngStreams(7)),
               BurstNoise(underlay, RngStreams(7), "measure", 1, 50, 1.0))
    for noise in readers:
        noise.at(600.0)
        noise.at(600.0 + noise.interval_s)
        assert 1 <= len(noise._rows) == noise.length <= 6
        for part in noise._block:
            assert part.size <= BLOCK_ELEMENTS
            assert len(part) == noise.length


def test_a_run_that_ends_inside_a_block_completes(small_regions):
    """The blocks clip at the underlay's horizon: a run up to it (as a
    served window that ends there) completes, and its measurements are
    the same as a run that stops earlier."""
    underlay = build_underlay(small_regions,
                              UnderlayConfig(horizon_s=3600.0 + 50.0), seed=4)
    runs = []
    for duration in (45.0, 50.0):
        engine = EventDrivenXRON(
            underlay, DemandModel(underlay.regions, seed=3),
            sim_config=SimulationConfig(epoch_s=30.0, seed=3))
        with engine:
            runs.append(engine.run(3600.0, duration))
    short, full = runs
    for pair, record in short.sessions.items():
        assert full.sessions[pair].latency_ms[:len(record.times)] \
            == record.latency_ms
    assert max(t for record in full.sessions.values()
               for t in record.times) == 3650.0
