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
    """Run Algorithm 2 on one explicit multi-hop path."""
    streams = [Stream(1, regions[0], regions[-1], 10.0, VIDEO_PROFILES[0])]
    result = path_control(streams, CODES, state,
                          ControlConfig(), gateways={c: 8 for c in CODES})
    # Force the desired path by replacing the assignment's path.
    result.assignments[0].path = OverlayPath.via(regions, I)
    return result, generate_reaction_plans(result, state)


def test_plan_for_every_non_terminal_region():
    state = make_state()
    __, plans = _plans_for_path(["A", "B", "C", "D"], state)
    assert {(1, "A"), (1, "B"), (1, "C")} == set(plans.keys())


def test_destination_has_no_plan():
    state = make_state()
    __, plans = _plans_for_path(["A", "B", "D"], state)
    assert (1, "D") not in plans


def test_plan_default_is_direct_premium():
    state = make_state()
    __, plans = _plans_for_path(["A", "B", "D"], state)
    # With near-uniform premium latencies, direct premium wins.
    assert plans[(1, "B")].relay_regions == ("D",)


def test_plan_uses_later_relay_when_better():
    # Premium A->D is terrible; A->C->D is much better and C is on-path.
    state = make_state(premium_lat={("A", "D"): 2000.0, ("A", "C"): 50.0,
                                    ("C", "D"): 50.0})
    __, plans = _plans_for_path(["A", "B", "C", "D"], state)
    plan_a = plans[(1, "A")]
    assert plan_a.relay_regions[-1] == "D"
    assert "C" in plan_a.relay_regions


def test_property1_plan_beats_naive_premium_substitution():
    """Property 1: the plan's score <= replacing remaining hops by premium."""
    state = make_state(premium_lat={("A", "D"): 700.0, ("B", "D"): 600.0})
    result, plans = _plans_for_path(["A", "B", "C", "D"], state)
    original = result.assignments[0].path
    for region in ("A", "B", "C"):
        plan = plans[(1, region)]
        naive = naive_premium_path(original, region)
        assert _score(backup_path(plan), state) <= _score(naive, state) + 1e-9


def test_property2_plan_regions_subset_of_path():
    """Property 2: backup paths only use regions already on the path."""
    state = make_state(premium_lat={("A", "D"): 2000.0})
    result, plans = _plans_for_path(["A", "B", "C", "D"], state)
    on_path = set(result.assignments[0].path.regions)
    for plan in plans.values():
        assert set(backup_path(plan).regions) <= on_path


def test_backup_paths_are_all_premium():
    state = make_state()
    __, plans = _plans_for_path(["A", "B", "C", "D"], state)
    for plan in plans.values():
        assert all(t is P for __, __, t in backup_path(plan).hops)


def test_plan_next_hop():
    plan = ReactionPlan(1, "A", ("C", "D"))
    assert plan.relay_regions[0] == "C"
    assert backup_path(plan).hops == (("A", "C", P), ("C", "D", P))


def test_naive_premium_path_requires_on_path_region():
    path = OverlayPath.via(["A", "B", "C"], I)
    with pytest.raises(ValueError):
        naive_premium_path(path, "D")
    with pytest.raises(ValueError):
        naive_premium_path(path, "C")  # the destination has no remainder


def test_plans_generated_from_real_path_control():
    streams = [Stream(i, "A", "D", 5.0, VIDEO_PROFILES[0])
               for i in range(3)]
    state = make_state()
    result = path_control(streams, CODES, state, ControlConfig(),
                          gateways={c: 8 for c in CODES})
    plans = generate_reaction_plans(result, state)
    # Every (stream, non-terminal region) of every assignment has a plan.
    for a in result.assignments:
        for region in a.path.regions[:-1]:
            assert (a.stream.stream_id, region) in plans


def test_split_stream_keeps_first_assignment_plan():
    """A stream split over two paths keeps one plan per region (the
    first/best assignment's)."""
    config = ControlConfig(internet_bandwidth_mbps=6.0,
                           premium_bandwidth_mbps=6.0)
    state = make_state()
    streams = [Stream(1, "A", "D", 10.0, VIDEO_PROFILES[0])]
    result = path_control(streams, CODES, state, config,
                          gateways={c: 8 for c in CODES})
    plans = generate_reaction_plans(result, state)
    keys = [k for k in plans if k[0] == 1]
    assert len(keys) == len(set(keys))
