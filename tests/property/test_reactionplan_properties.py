"""Property-based tests for Algorithm 2's stated properties.

The paper proves two properties of reaction-plan generation; hypothesis
checks them over random link states and random forwarding paths:

* Property 1 — the backup path is at least as good (by the planning
  score) as naively replacing the remaining hops with premium links;
* Property 2 — backup paths only use regions already on the path.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.controlplane.model import OverlayPath
from repro.controlplane.pathcontrol import Assignment, PathControlResult
from repro.controlplane.reactionplan import generate_reaction_plans
from repro.traffic.streams import Stream, VIDEO_PROFILES
from repro.underlay.linkstate import LinkType
from tests.controlplane.route_oracle import backup_path, naive_premium_path
from tests.controlplane.route_oracle import score as _score
from tests.snapshots import snapshot_of

REGIONS = ["A", "B", "C", "D", "E"]

state_tables = st.fixed_dictionaries({
    (a, b): st.tuples(st.floats(5.0, 1500.0), st.floats(0.0, 0.2))
    for a in REGIONS for b in REGIONS if a != b})

paths = st.lists(st.sampled_from(REGIONS), min_size=2, max_size=5,
                 unique=True)


def _result_for(path_regions):
    path = OverlayPath.via(path_regions, LinkType.INTERNET)
    stream = Stream(1, path_regions[0], path_regions[-1], 10.0,
                    VIDEO_PROFILES[0])
    assignment = Assignment(stream, path, 10.0, 0.0, 0.0, True)
    return PathControlResult(
        assignments=[assignment], unassigned=[], region_traffic={},
        internet_egress={}, premium_usage={}, used_gateways={},
        forwarding_tables={r: {} for r in REGIONS})


def _snapshot(table):
    def state(a, b, t):
        lat, loss = table[(a, b)]
        if t is LinkType.PREMIUM:
            return (lat, loss)
        # Internet arbitrarily different; plans only read premium states
        # but the scorer may touch both.
        return (lat * 1.7, min(loss * 2.0, 1.0))
    return snapshot_of(REGIONS, state)


@given(table=state_tables, regions=paths)
@settings(max_examples=120, deadline=None)
def test_property1_beats_naive_substitution(table, regions):
    result = _result_for(regions)
    state = _snapshot(table)
    plans = generate_reaction_plans(result, state)
    original = result.assignments[0].path
    for region in regions[:-1]:
        plan = plans[(1, region)]
        naive = naive_premium_path(original, region)
        assert (_score(backup_path(plan), state)
                <= _score(naive, state) + 1e-9)


@given(table=state_tables, regions=paths)
@settings(max_examples=120, deadline=None)
def test_property2_on_path_regions_only(table, regions):
    result = _result_for(regions)
    plans = generate_reaction_plans(result, _snapshot(table))
    on_path = set(regions)
    for plan in plans.values():
        backup = backup_path(plan)
        assert set(backup.regions) <= on_path
        # All premium, loop free, ends at the destination.
        assert all(t is LinkType.PREMIUM for __, __, t in backup.hops)
        assert len(set(backup.regions)) == len(backup.regions)
        assert backup.dst == regions[-1]


@given(table=state_tables, regions=paths)
@settings(max_examples=60, deadline=None)
def test_every_non_terminal_region_has_a_plan(table, regions):
    plans = generate_reaction_plans(_result_for(regions), _snapshot(table))
    assert {(1, r) for r in regions[:-1]} == set(plans.keys())
