"""Property-based tests on Algorithm 1's invariants.

Random topologies, link states, capacities, and stream sets; the
invariants must hold regardless:

* conservation — assigned + unassigned demand equals offered demand;
* capacity — region processing, Internet egress, and premium pair
  budgets are never exceeded;
* consistency — forwarding tables encode exactly the assigned paths and
  every path is loop-free from source to destination.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import path_control
from repro.traffic.streams import Stream, VIDEO_PROFILES
from repro.underlay.linkstate import LinkType
from tests.snapshots import snapshot_of
from tests.tables import region_traffic, table_of

CODES = ["A", "B", "C", "D"]

# --------------------------------------------------------------- strategies

link_states = st.fixed_dictionaries({
    (a, b, t): st.tuples(st.floats(10.0, 2000.0), st.floats(0.0, 0.3))
    for a in CODES for b in CODES if a != b
    for t in (LinkType.INTERNET, LinkType.PREMIUM)})

stream_sets = st.lists(
    st.tuples(st.sampled_from(CODES), st.sampled_from(CODES),
              st.floats(0.1, 500.0)),
    min_size=0, max_size=12).map(
        lambda raw: table_of([Stream(i, a, b, d, VIDEO_PROFILES[0])
                              for i, (a, b, d) in enumerate(raw) if a != b],
                             CODES))

configs = st.builds(
    ControlConfig,
    container_capacity_mbps=st.floats(50.0, 2000.0),
    internet_bandwidth_mbps=st.floats(100.0, 5000.0),
    premium_bandwidth_mbps=st.floats(100.0, 5000.0),
    max_hops=st.integers(2, 3))

gateway_counts = st.fixed_dictionaries(
    {c: st.integers(1, 8) for c in CODES})


def _snapshot(states):
    return snapshot_of(CODES, lambda a, b, t: states[(a, b, t)])


class TestInvariants:
    @given(states=link_states, streams=stream_sets, config=configs,
           gateways=gateway_counts)
    @settings(max_examples=60, deadline=None)
    def test_demand_conservation(self, states, streams, config, gateways):
        result = path_control(streams, CODES, _snapshot(states), config,
                              gateways=gateways)
        offered = sum(s.demand_mbps for s in streams.streams())
        assigned = result.total_assigned_mbps()
        unassigned = sum(res for __, res in result.unassigned)
        assert assigned + unassigned == pytest.approx(offered, rel=1e-6)

    @given(states=link_states, streams=stream_sets, config=configs,
           gateways=gateway_counts)
    @settings(max_examples=60, deadline=None)
    def test_region_capacity_respected(self, states, streams, config,
                                       gateways):
        result = path_control(streams, CODES, _snapshot(states), config,
                              gateways=gateways)
        for region, traffic in region_traffic(result).items():
            cap = config.container_capacity_mbps * gateways[region]
            assert traffic <= cap + 1e-6

    @given(states=link_states, streams=stream_sets, config=configs,
           gateways=gateway_counts)
    @settings(max_examples=60, deadline=None)
    def test_link_budgets_respected(self, states, streams, config,
                                    gateways):
        result = path_control(streams, CODES, _snapshot(states), config,
                              gateways=gateways)
        for __, egress in result.internet_egress.items():
            assert egress <= config.internet_bandwidth_mbps + 1e-6
        for __, usage in result.premium_usage.items():
            assert usage <= config.premium_bandwidth_mbps + 1e-6

    @given(states=link_states, streams=stream_sets, config=configs,
           gateways=gateway_counts)
    @settings(max_examples=60, deadline=None)
    def test_paths_are_valid_chains(self, states, streams, config,
                                    gateways):
        result = path_control(streams, CODES, _snapshot(states), config,
                              gateways=gateways)
        for a in result.assignments:
            assert a.path.regions[0] == a.stream.src
            assert a.path.dst == a.stream.dst
            regions = a.path.regions
            assert len(set(regions)) == len(regions)  # loop-free
            assert len(a.path.hops) <= config.max_hops
            assert a.mbps > 0

    @given(states=link_states, streams=stream_sets, config=configs,
           gateways=gateway_counts)
    @settings(max_examples=40, deadline=None)
    def test_forwarding_tables_reach_destinations(self, states, streams,
                                                  config, gateways):
        """Following the tables from any assignment's source reaches its
        destination without looping."""
        result = path_control(streams, CODES, _snapshot(states), config,
                              gateways=gateways)
        # A stream split over several paths keeps one table entry per
        # region (the last write wins), so walk only unsplit streams.
        split = {s.stream_id for s, __ in result.unassigned}
        counts: dict = {}
        for a in result.assignments:
            counts[a.stream.stream_id] = counts.get(a.stream.stream_id, 0) + 1
        for a in result.assignments:
            sid = a.stream.stream_id
            if counts[sid] > 1 or sid in split:
                continue
            current, seen = a.stream.src, set()
            while current != a.stream.dst:
                assert current not in seen, "routing loop"
                seen.add(current)
                entry = result.forwarding_tables[current].get(sid)
                assert entry is not None, "dangling table entry"
                current = entry[0]

    @given(states=link_states, streams=stream_sets)
    @settings(max_examples=30, deadline=None)
    def test_uncapacitated_assigns_everything(self, states, streams):
        """Without region caps and with generous link budgets, every
        stream is carried (possibly flagged, never dropped)."""
        offered = sum(s.demand_mbps for s in streams.streams())
        config = ControlConfig(
            internet_bandwidth_mbps=max(offered, 1.0) * 10,
            premium_bandwidth_mbps=max(offered, 1.0) * 10)
        result = path_control(streams, CODES, _snapshot(states), config,
                              gateways=None)
        assert not result.unassigned
