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
from repro.controlplane.reactionplan import generate_reaction_plans
from repro.underlay.linkstate import LinkType
from tests.controlplane.route_oracle import backup_path, naive_premium_path
from tests.controlplane.route_oracle import score as _score
from tests.snapshots import snapshot_of
from tests.tables import placed_on

REGIONS = ["A", "B", "C", "D", "E"]

state_tables = st.fixed_dictionaries({
    (a, b): st.tuples(st.floats(5.0, 1500.0), st.floats(0.0, 0.2))
    for a in REGIONS for b in REGIONS if a != b})

paths = st.lists(st.sampled_from(REGIONS), min_size=2, max_size=5,
                 unique=True)


def _plans_for(path_regions, state):
    """Stream 1's plans on the path through `path_regions`: region ->
    relay chain."""
    plans = generate_reaction_plans(placed_on(path_regions, REGIONS), state)
    return {region: by_stream[1] for region, by_stream in plans.items()
            if by_stream}


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
    state = _snapshot(table)
    plans = _plans_for(regions, state)
    original = OverlayPath.via(regions, LinkType.INTERNET)
    for region in regions[:-1]:
        naive = naive_premium_path(original, region)
        assert (_score(backup_path(region, plans[region]), state)
                <= _score(naive, state) + 1e-9)


@given(table=state_tables, regions=paths)
@settings(max_examples=120, deadline=None)
def test_property2_on_path_regions_only(table, regions):
    plans = _plans_for(regions, _snapshot(table))
    on_path = set(regions)
    for region, relays in plans.items():
        backup = backup_path(region, relays)
        assert set(backup.regions) <= on_path
        # All premium, loop free, ends at the destination.
        assert all(t is LinkType.PREMIUM for __, __, t in backup.hops)
        assert len(set(backup.regions)) == len(backup.regions)
        assert backup.dst == regions[-1]


@given(table=state_tables, regions=paths)
@settings(max_examples=60, deadline=None)
def test_every_non_terminal_region_has_a_plan(table, regions):
    plans = _plans_for(regions, _snapshot(table))
    assert set(regions[:-1]) == set(plans)
