"""Generated-input tests of the solver's index-space forms against the
scalar oracles in `tests/controlplane/route_oracle.py`.

* A graph build's route table (`_ShortestPaths`: every pair's node
  sequence, link types, latency, loss and resource row, reconstructed
  with one gather per DP layer) equals the per-pair `expand` recursion
  plus the per-hop sums of `LinkStateSnapshot.path_latency_ms` /
  `route_oracle.path_loss_rate`, bit for bit.
* Algorithm 2's walk over flat premium matrices (`_route_walk`) equals
  the walk that scores an `OverlayPath` per candidate, plan for plan.

The value pools hold exact ties (10 + 20 == 30), missing links and
triples whose sum depends on the order of addition, so a tie broken the
other way or a sum taken right to left shows.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.controlplane.model import ControlConfig, OverlayPath
from repro.controlplane.pathcontrol import (Assignment, PathControlResult,
                                            _dp_layers, _EdgeWeights,
                                            _residuals, _RouteTable,
                                            _ShortestPaths)
from repro.controlplane.reactionplan import (_route_walk,
                                             generate_reaction_plans)
from repro.traffic.streams import Stream, VIDEO_PROFILES
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_INDEX, TYPE_ORDER, LinkStateSnapshot
from tests.controlplane.route_oracle import (expand, path_loss_rate,
                                             route_walk)

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
    sp = _ShortestPaths(weights, config, _residuals(codes, config, None))
    routes = _RouteTable(codes)

    # The oracle's own graph: every residual is positive, so an edge is
    # usable when its loss is within the limit.
    weight = np.where(weights.quality_ok, weights.weight, INF)
    best_type = np.argmin(weight, axis=0)
    w = np.min(weight, axis=0)
    np.fill_diagonal(w, INF)
    dist, vias, improved = _dp_layers(w, max_hops - 1)

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
            row = sp.rows[k * sp.width:k * sp.width + 2 * n_hops + 1]
            assert sp.latency_ms[k].hex() == snap.path_latency_ms(path).hex()
            assert sp.loss_rate[k].hex() == path_loss_rate(snap, path).hex()
            # The resource row: the regions, then the Internet egress of
            # each Internet hop's source or the premium pair (a, b).
            assert row == nodes + [
                n + a if best_type[a, b] == TYPE_INDEX[LinkType.INTERNET]
                else 2 * n + a * n + b for a, b in zip(nodes, nodes[1:])]
            # The interned route hands back the same path.
            key = sp.keys[k * sp.stride:(k + 1) * sp.stride]
            rid = routes.ids.get(key)
            if rid is None:
                rid = routes.add(key, row, sp.latency_ms[k], sp.loss_rate[k])
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


@given(premium_tables, routes_drawn, st.sampled_from([0.0, 2500.0]))
@example(TIED, ["A", "B", "C", "D"], 2500.0)
@settings(max_examples=200, deadline=None)
def test_index_space_walk_equals_the_scalar_walk(table, regions, penalty):
    snap = premium_snapshot(table)
    expected = route_walk(tuple(regions), snap, penalty)
    plans = _route_walk([snap.index[r] for r in regions],
                        snap.lat[PREMIUM].ravel().tolist(),
                        snap.loss[PREMIUM].ravel().tolist(), 5, penalty)
    assert [tuple(REGIONS[r] for r in relays) for relays in plans] \
        == [expected[r] for r in regions[:-1]]

    # And through the public door.
    stream = Stream(1, regions[0], regions[-1], 10.0, VIDEO_PROFILES[0])
    result = PathControlResult(
        [Assignment(stream, OverlayPath.via(regions, LinkType.INTERNET),
                    10.0, 0.0, 0.0, True)], [], {}, {}, {}, {}, {})
    generated = generate_reaction_plans(result, snap, penalty)
    assert {region: plan.relay_regions
            for (__, region), plan in generated.items()} == expected
