"""Generated-input tests of the solver's index-space forms against the
scalar oracles in `tests/controlplane/route_oracle.py`.

* A graph build's route table (`_ShortestPaths`: every pair's node
  sequence, link types, latency, loss and resource row, reconstructed
  with one gather per DP layer) equals the per-pair `expand` recursion
  plus the per-hop sums of `LinkStateSnapshot.path_latency_ms` /
  `route_oracle.path_loss_rate`, bit for bit.
* Algorithm 2's array pass (`_relay_choices`: every route of one hop
  count at once) equals the scalar walk over flat premium matrices
  (`route_oracle.index_walk`) and the walk that scores an `OverlayPath`
  per candidate, plan for plan — on links that are missing (infinite
  latency) or lose everything (loss 1.0) too.

The value pools hold exact ties (10 + 20 == 30), missing links and
triples whose sum depends on the order of addition, so a tie broken the
other way or a sum taken right to left shows.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.controlplane import model
from repro.controlplane.model import ControlConfig, OverlayPath
from repro.controlplane.pathcontrol import (_dp_layers, _EdgeWeights,
                                            _residuals, _RouteTable,
                                            _ShortestPaths)
from repro.controlplane.reactionplan import (_relay_choices,
                                             generate_reaction_plans)
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_INDEX, TYPE_ORDER, LinkStateSnapshot
from tests.controlplane.route_oracle import (expand, index_walk,
                                             path_loss_rate, route_walk)
from tests.tables import placed_on

INF = math.inf
LATENCIES = st.sampled_from([10.0, 20.0, 30.0, 0.1, 0.2, 0.3, 0.7, 35.5,
                             INF, INF])
#: 0.2 is over the default 0.005 loss limit: the edge is masked.
LOSSES = st.sampled_from([0.0, 0.0, 0.001, 0.003, 0.004, 0.2])


def snapshot(codes, lat, loss) -> LinkStateSnapshot:
    n = len(codes)
    lat = np.array(lat, dtype=float).reshape(2, n, n)
    loss = np.array(loss, dtype=float).reshape(2, n, n)
    diag = np.arange(n)
    lat[:, diag, diag] = INF
    loss[:, diag, diag] = 1.0
    return LinkStateSnapshot(codes, lat, loss)


def names(n: int):
    return [f"R{i}" for i in range(n)]


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 9))
    cells = 2 * n * n
    return (snapshot(names(n),
                     draw(st.lists(LATENCIES, min_size=cells, max_size=cells)),
                     draw(st.lists(LOSSES, min_size=cells, max_size=cells))),
            draw(st.integers(1, 4)))


def chain_graph(latencies, tier: int) -> LinkStateSnapshot:
    """R0 -> R1 -> ... over one tier only; every other link missing."""
    n = len(latencies) + 1
    lat = np.full((2, n, n), INF)
    for i, value in enumerate(latencies):
        lat[tier, i, i + 1] = value
    return snapshot(names(n), lat, np.zeros((2, n, n)))


@given(graphs())
@example((chain_graph([0.1, 0.2, 0.3], 0), 3))
@example((chain_graph([0.7, 0.1, 0.2, 0.3], 1), 4))
@settings(max_examples=150, deadline=None)
def test_route_table_equals_the_scalar_reconstruction(graph):
    snap, max_hops = graph
    codes, n = snap.codes, len(snap.codes)
    config = ControlConfig(max_hops=max_hops)
    weights = _EdgeWeights(snap, config, None)
    sp = _ShortestPaths(weights, config, _residuals(codes, config, None),
                        np.arange(n))
    routes = _RouteTable(codes, sp.width)

    # The oracle's own graph: every residual is positive, so an edge is
    # usable when its loss is within the limit.
    weight = np.where(weights.quality_ok, weights.weight, INF)
    best_type = np.argmin(weight, axis=0)
    w = np.min(weight, axis=0)
    np.fill_diagonal(w, INF)
    dist, vias, improved = _dp_layers(w, np.arange(n), max_hops - 1)

    for i in range(n):
        for j in range(n):
            k = i * n + j
            if not math.isfinite(dist[i, j]):
                assert sp.hops[k] == 0
                continue
            nodes = expand(vias, improved, i, j, len(vias))
            path = OverlayPath(tuple(
                (codes[a], codes[b], TYPE_ORDER[best_type[a, b]])
                for a, b in zip(nodes, nodes[1:])))
            n_hops = sp.hops[k]
            row = sp.rows[k, :2 * n_hops + 1].tolist()
            assert sp.latency_ms[k].hex() == snap.path_latency_ms(path).hex()
            assert sp.loss_rate[k].hex() == path_loss_rate(snap, path).hex()
            # The resource row: the regions, then the Internet egress of
            # each Internet hop's source or the premium pair (a, b).
            assert row == nodes + [
                n + a if best_type[a, b] == TYPE_INDEX[LinkType.INTERNET]
                else 2 * n + a * n + b for a, b in zip(nodes, nodes[1:])]
            # The interned route hands back the same path.
            [rid] = routes.intern(sp.rows[[k]], sp.hops[[k]],
                                  sp.latency_ms[[k]], sp.loss_rate[[k]])
            assert routes.path(rid) == path
            assert routes.path(rid).regions == path.regions


REGIONS = ["A", "B", "C", "D", "E"]
PREMIUM = TYPE_INDEX[LinkType.PREMIUM]

premium_tables = st.tuples(
    st.lists(st.one_of(st.sampled_from([10.0, 20.0, 30.0, 0.1, 0.2, 0.3]),
                       st.floats(5.0, 1500.0)), min_size=25, max_size=25),
    st.lists(st.sampled_from([0.0, 0.0, 0.001, 0.01, 0.2]), min_size=25,
             max_size=25))
routes_drawn = st.lists(st.sampled_from(REGIONS), min_size=2, max_size=5,
                        unique=True)


def premium_snapshot(table) -> LinkStateSnapshot:
    lat, loss = (np.array(values).reshape(5, 5) for values in table)
    return snapshot(REGIONS, np.stack([lat * 1.7, lat]),
                    np.stack([loss, loss]))


TIED = ([10.0] * 25, [0.0] * 25)
TIED[0][0 * 5 + 3] = 30.0   # A -> D direct ...
TIED[0][0 * 5 + 1] = 10.0   # ... ties with A -> B -> D (10 + 20)
TIED[0][1 * 5 + 3] = 20.0


def array_walks(routes, snap, penalty):
    """`_relay_choices` over `routes` (region-id lists of one hop
    count): per route, its relay ids per non-terminal position."""
    via = _relay_choices(np.array(routes, dtype=np.intp),
                         snap.lat[PREMIUM].ravel(),
                         snap.loss[PREMIUM].ravel(), len(snap.codes),
                         penalty)
    walks = []
    for route, choices in zip(routes, via.tolist()):
        chains = [()] * len(choices)
        for i in reversed(range(len(choices))):
            j = choices[i]
            chains[i] = (route[-1],) if j < 0 else (route[j],) + chains[j]
        walks.append(chains)
    return walks


@given(premium_tables, routes_drawn, st.sampled_from([0.0, 2500.0]))
@example(TIED, ["A", "B", "C", "D"], 2500.0)
@settings(max_examples=200, deadline=None)
def test_index_space_walk_equals_the_scalar_walk(table, regions, penalty):
    snap = premium_snapshot(table)
    expected = route_walk(tuple(regions), snap, penalty)
    route = [snap.index[r] for r in regions]
    plans = index_walk(route, snap.lat[PREMIUM].ravel().tolist(),
                       snap.loss[PREMIUM].ravel().tolist(), 5, penalty)
    assert [tuple(REGIONS[r] for r in relays) for relays in plans] \
        == [expected[r] for r in regions[:-1]]
    assert array_walks([route], snap, penalty) == [plans]

    # And through the public door.
    with mock.patch.object(model, "LOSS_MS_PENALTY", penalty):
        generated = generate_reaction_plans(placed_on(regions, REGIONS),
                                            snap)
    assert {region: by_stream[1] for region, by_stream in generated.items()
            if by_stream} == expected


#: Premium links for the array-pass property: exact ties, order-sensitive
#: sums, missing links and links that lose every packet.
WALK_LATENCIES = st.sampled_from([10.0, 20.0, 30.0, 0.1, 0.2, 0.3, 0.7,
                                  35.5, INF])
WALK_LOSSES = st.sampled_from([0.0, 0.0, 0.001, 0.01, 0.2, 1.0])


@st.composite
def walk_cases(draw):
    """A premium snapshot over 2-7 regions, a hop limit, and 1-12 loop-
    free routes of 1..limit hops each."""
    n = draw(st.integers(2, 7))
    cells = 2 * n * n
    snap = snapshot(names(n),
                    draw(st.lists(WALK_LATENCIES, min_size=cells,
                                  max_size=cells)),
                    draw(st.lists(WALK_LOSSES, min_size=cells,
                                  max_size=cells)))
    max_hops = draw(st.integers(1, min(4, n - 1)))
    routes = draw(st.lists(
        st.integers(1, max_hops).flatmap(
            lambda hops: st.permutations(range(n)).map(
                lambda order: order[:hops + 1])),
        min_size=1, max_size=12))
    return snap, routes, draw(st.sampled_from([0.0, 2500.0]))


def tied_case():
    """Relaying through R1 ties the direct link on both routes: exactly
    (10 + 20 == 30) on R0 -> R1 -> R3, at infinity on R0 -> R2 -> R3."""
    lat = np.full((2, 4, 4), INF)
    for (a, b), value in {(0, 1): 10.0, (1, 3): 20.0, (0, 3): 30.0,
                          (2, 3): 5.0}.items():
        lat[:, a, b] = value
    return (snapshot(names(4), lat, np.zeros((2, 4, 4))),
            [[0, 1, 3], [0, 2, 3]], 2500.0)


@given(walk_cases())
@example(tied_case())
@settings(max_examples=200, deadline=None)
def test_array_pass_equals_the_scalar_walk(case):
    """Every route of one hop count scored in one array pass gets the
    scalar walk's relay chain at every position, ties included."""
    snap, routes, penalty = case
    latency = snap.lat[PREMIUM].ravel().tolist()
    loss = snap.loss[PREMIUM].ravel().tolist()
    for hops in {len(route) - 1 for route in routes}:
        group = [route for route in routes if len(route) - 1 == hops]
        assert array_walks(group, snap, penalty) == [
            index_walk(route, latency, loss, len(snap.codes), penalty)
            for route in group]
