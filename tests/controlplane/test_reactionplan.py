"""Tests for Algorithm 2 (reaction plans), including Properties 1 and 2."""

import pytest

from repro.controlplane.model import ControlConfig, OverlayPath
from repro.controlplane.pathcontrol import path_control
from repro.controlplane.reactionplan import (ReactionPlan,
                                             generate_reaction_plans)
from repro.traffic.streams import Stream, VIDEO_PROFILES
from repro.underlay.linkstate import LinkType
from tests.controlplane.route_oracle import backup_path, naive_premium_path
from tests.controlplane.route_oracle import score as _score
from tests.snapshots import snapshot_of
from tests.tables import placed_on, table_of

I = LinkType.INTERNET
P = LinkType.PREMIUM

CODES = ["A", "B", "C", "D"]


def make_state(premium_lat=None):
    premium_lat = premium_lat or {}

    def state(a, b, t):
        if t is I:
            return (100.0, 0.001)
        return (premium_lat.get((a, b), 90.0), 0.00001)
    return snapshot_of(CODES, state)


def _plans_for_path(regions, state):
    """Run Algorithm 2 on one explicit multi-hop path: stream 1's plans,
    region -> relay chain."""
    plans = generate_reaction_plans(placed_on(regions, CODES), state)
    assert all(set(by_stream) <= {1} for by_stream in plans.values())
    return {region: by_stream[1] for region, by_stream in plans.items()
            if by_stream}


def test_plan_for_every_non_terminal_region():
    state = make_state()
    plans = _plans_for_path(["A", "B", "C", "D"], state)
    assert {"A", "B", "C"} == set(plans)


def test_destination_has_no_plan():
    state = make_state()
    plans = _plans_for_path(["A", "B", "D"], state)
    assert "D" not in plans


def test_plan_default_is_direct_premium():
    state = make_state()
    plans = _plans_for_path(["A", "B", "D"], state)
    # With near-uniform premium latencies, direct premium wins.
    assert plans["B"] == ("D",)


def test_plan_uses_later_relay_when_better():
    # Premium A->D is terrible; A->C->D is much better and C is on-path.
    state = make_state(premium_lat={("A", "D"): 2000.0, ("A", "C"): 50.0,
                                    ("C", "D"): 50.0})
    plans = _plans_for_path(["A", "B", "C", "D"], state)
    assert plans["A"][-1] == "D"
    assert "C" in plans["A"]


def test_property1_plan_beats_naive_premium_substitution():
    """Property 1: the plan's score <= replacing remaining hops by premium."""
    state = make_state(premium_lat={("A", "D"): 700.0, ("B", "D"): 600.0})
    original = OverlayPath.via(["A", "B", "C", "D"], I)
    plans = _plans_for_path(original.regions, state)
    for region in ("A", "B", "C"):
        naive = naive_premium_path(original, region)
        assert (_score(backup_path(region, plans[region]), state)
                <= _score(naive, state) + 1e-9)


def test_property2_plan_regions_subset_of_path():
    """Property 2: backup paths only use regions already on the path."""
    state = make_state(premium_lat={("A", "D"): 2000.0})
    plans = _plans_for_path(["A", "B", "C", "D"], state)
    for region, relays in plans.items():
        assert set(backup_path(region, relays).regions) <= set("ABCD")


def test_backup_paths_are_all_premium():
    state = make_state()
    plans = _plans_for_path(["A", "B", "C", "D"], state)
    for region, relays in plans.items():
        assert all(t is P for __, __, t in backup_path(region, relays).hops)


def test_plan_next_hop():
    plan = ReactionPlan(1, "A", ("C", "D"))
    assert plan.relay_regions[0] == "C"
    assert backup_path(plan.region, plan.relay_regions).hops == (
        ("A", "C", P), ("C", "D", P))


def test_naive_premium_path_requires_on_path_region():
    path = OverlayPath.via(["A", "B", "C"], I)
    with pytest.raises(ValueError):
        naive_premium_path(path, "D")
    with pytest.raises(ValueError):
        naive_premium_path(path, "C")  # the destination has no remainder


def test_plans_generated_from_real_path_control():
    streams = table_of([Stream(i, "A", "D", 5.0, VIDEO_PROFILES[0])
                        for i in range(3)], CODES)
    state = make_state()
    result = path_control(streams, CODES, state, ControlConfig(),
                          gateways={c: 8 for c in CODES})
    plans = generate_reaction_plans(result, state)
    # Every (stream, non-terminal region) of every assignment has a plan.
    for a in result.assignments:
        for region in a.path.regions[:-1]:
            assert a.stream.stream_id in plans[region]


def test_split_stream_keeps_first_assignment_plan():
    """A stream split over two paths keeps, per region, the plan of the
    first assignment through it."""
    config = ControlConfig(internet_bandwidth_mbps=6.0,
                           premium_bandwidth_mbps=6.0)
    state = make_state()
    streams = table_of([Stream(1, "A", "D", 10.0, VIDEO_PROFILES[0])], CODES)
    result = path_control(streams, CODES, state, config,
                          gateways={c: 8 for c in CODES})
    assert len(result.assignments) >= 2
    plans = generate_reaction_plans(result, state)
    for region, by_stream in plans.items():
        first = next((a for a in result.assignments
                      if region in a.path.regions[:-1]), None)
        if first is None:
            assert 1 not in by_stream
            continue
        alone = generate_reaction_plans(
            placed_on(first.path.regions, CODES), state)
        assert by_stream[1] == alone[region][1]
