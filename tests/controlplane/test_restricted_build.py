"""Algorithm 1's rebuilds solve only the live graph.

A rebuild runs the min-plus DP, route reconstruction and hop metrics
for the source regions of the streams the next sweep visits, over the
regions that still have capacity.  Against the full build it replaced
(`tests/controlplane/full_build_oracle.py`):

* every restricted row equals the full build's row bit for bit — dist,
  hops, resource row, route key, latency and loss — on drawn graphs with
  missing links, tied weights, regions without capacity and drawn
  source subsets;
* `path_control` equals the solver that rebuilds full graphs (the
  oracle patched in for `_ShortestPaths`): columns, route ids and
  routes, unassigned streams and residuals, rebuild count;
* at 100 regions, no rebuild solves more DP rows than there are
  distinct sources with unplaced demand, no sweep places its streams in
  more rounds than it has partial takes and newly spent slots, plus
  one, and each run interns its routes once.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.controlplane import pathcontrol
from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import (ORDERINGS, EpochSolveContext,
                                            _EdgeWeights, _route_keys,
                                            _ShortestPaths, path_control)
from repro.experiments.base import planet_underlay
from repro.traffic.cohorts import CohortWorkload
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import VIDEO_PROFILES, Stream
from repro.underlay.snapshot import LinkStateSnapshot
from tests.controlplane.full_build_oracle import FullShortestPaths
from tests.tables import table_of

INF = math.inf


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


# ------------------------------------------------------------ row by row
#: Whole-number weights tie often (1 + 2 == 3); 0.2 loss is over the
#: default limit, so such an edge exists only for the fallback pass.
WEIGHTS = st.sampled_from([1.0, 2.0, 3.0, 5.0, INF])
LOSSES = st.sampled_from([0.0, 0.0, 0.0, 0.2])


@st.composite
def builds(draw):
    """A graph over 2-12 regions, residuals with dead regions and spent
    links, a source subset, a hop limit and the pass (quality or
    best-effort)."""
    n = draw(st.integers(2, 12))
    cells = 2 * n * n
    snap = snapshot(names(n),
                    draw(st.lists(WEIGHTS, min_size=cells, max_size=cells)),
                    draw(st.lists(LOSSES, min_size=cells, max_size=cells)))
    residuals = (
        draw(st.lists(st.sampled_from([0.0, 0.0, 5.0, INF]), min_size=n,
                      max_size=n))
        + draw(st.lists(st.sampled_from([0.0, 5.0, 5.0]), min_size=n,
                        max_size=n))
        + draw(st.lists(st.sampled_from([0.0, 5.0, 5.0, 5.0]),
                        min_size=n * n, max_size=n * n)))
    sources = np.unique(np.array(
        draw(st.lists(st.integers(0, n - 1), max_size=n)), dtype=np.intp))
    return (snap, residuals, sources, draw(st.integers(2, 4)),
            draw(st.booleans()))


@given(builds())
@settings(max_examples=300, deadline=None)
def test_each_restricted_row_equals_the_full_builds(case):
    snap, residuals, sources, max_hops, enforce_loss = case
    n = len(snap.codes)
    config = ControlConfig(max_hops=max_hops)
    weights = _EdgeWeights(snap, config, None)
    full = FullShortestPaths(weights, config, residuals, None, enforce_loss)
    sp = _ShortestPaths(weights, config, residuals, sources, enforce_loss)
    assert sp.width == full.width
    # Rows for the given sources only, columns for live regions only.
    live = sum(1 for v in residuals[:n] if v > 0)
    assert len(sp.hops) - 1 == live * sum(
        1 for s in sources if residuals[s] > 0)

    for s in sources.tolist():
        flat = sp.index(np.full(n, s), np.arange(n)).tolist()
        for d, k in enumerate(flat):
            f = s * n + d
            assert sp.hops[k] == full.hops[f]
            assert float(sp.dist[k]).hex() == float(full.dist[f]).hex()
            if not full.hops[f]:
                continue
            assert sp.rows[k].tolist() == full.rows[f].tolist()
            assert _route_keys(sp.rows[[k]], sp.hops[[k]], n) \
                == _route_keys(full.rows[[f]], full.hops[[f]], n)
            assert sp.latency_ms[k].hex() == full.latency_ms[f].hex()
            assert sp.loss_rate[k].hex() == full.loss_rate[f].hex()


# -------------------------------------------------------- whole solves
def solve(snap, streams, config, gateways, ordering, full: bool):
    """One `path_control`; `full` patches in the oracle build.  Returns
    every observable of the result and how many graphs the best-effort
    pass built (0 or 1)."""
    patch = (mock.patch.object(pathcontrol, "_ShortestPaths",
                               FullShortestPaths) if full else nullcontext())
    with patch, obs.capture() as hub:
        result = path_control(streams, snap.codes, snap, config,
                              gateways=gateways, ordering=ordering)
        counters = hub.metrics.snapshot()
    fallback = (counters["pathcontrol.snapshot_reuses"]["value"]
                - counters["pathcontrol.graph_rebuilds"]["value"]
                if "pathcontrol.snapshot_reuses" in counters else 0)
    routes = result.routes
    return ({"position": result.position.tolist(),
             "route": result.route.tolist(),
             "mbps": [m.hex() for m in result.mbps.tolist()],
             "meets": result.meets.tolist(),
             "unassigned_at": result.unassigned_at,
             "residual": [r.hex() for r in result.residual],
             "graph_rebuilds": result.graph_rebuilds,
             "routes": routes.rows.tolist(),
             "latency": [x.hex() for x in routes.latency_ms.tolist()],
             "loss": [x.hex() for x in routes.loss_rate.tolist()]},
            fallback)


#: Links of a tight small world: 0.01 loss is over the limit (only the
#: best-effort pass may use such a link), inf is a missing link.
SOLVE_LATENCIES = st.sampled_from([10.0, 20.0, 30.0, 45.0, INF])
SOLVE_LOSSES = st.sampled_from([0.0, 0.0, 0.001, 0.01])


@st.composite
def tight_solves(draw):
    n = draw(st.integers(2, 7))
    codes = names(n)
    cells = 2 * n * n
    snap = snapshot(codes,
                    draw(st.lists(SOLVE_LATENCIES, min_size=cells,
                                  max_size=cells)),
                    draw(st.lists(SOLVE_LOSSES, min_size=cells,
                                  max_size=cells)))
    raw = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                  st.integers(0, n - 1),
                                  st.sampled_from([50.0, 200.0, 600.0,
                                                   1500.0])),
                        min_size=1, max_size=25))
    streams = table_of([Stream(i, codes[a], codes[b], mbps,
                               VIDEO_PROFILES[0])
                        for i, (a, b, mbps) in enumerate(raw) if a != b],
                       codes)
    config = ControlConfig(
        container_capacity_mbps=draw(st.sampled_from([400.0, 1000.0])),
        internet_bandwidth_mbps=draw(st.sampled_from([300.0, 1000.0])),
        premium_bandwidth_mbps=draw(st.sampled_from([300.0, 800.0])),
        max_hops=draw(st.integers(2, 4)))
    gateways = draw(st.one_of(st.none(), st.fixed_dictionaries(
        {c: st.integers(0, 3) for c in codes})))
    return snap, streams, config, gateways, draw(st.sampled_from(ORDERINGS))


@given(tight_solves())
@settings(max_examples=150, deadline=None)
def test_path_control_equals_the_full_rebuild_solver(case):
    assert solve(*case, full=False) == solve(*case, full=True)


def seeded_solves(count: int):
    """`count` tight solves from a seeded generator, like the drawn
    ones, to show the differential reaches rebuilds and the fallback."""
    rng = np.random.default_rng(11)
    for __ in range(count):
        n = int(rng.integers(3, 8))
        codes = names(n)
        lat = rng.choice([10.0, 20.0, 30.0, 45.0, INF], size=(2, n, n),
                         p=[0.3, 0.25, 0.2, 0.15, 0.1])
        loss = rng.choice([0.0, 0.001, 0.01], size=(2, n, n),
                          p=[0.6, 0.2, 0.2])
        pairs = rng.integers(0, n, size=(30, 2))
        streams = table_of(
            [Stream(i, codes[a], codes[b], float(mbps), VIDEO_PROFILES[0])
             for i, ((a, b), mbps) in enumerate(zip(
                 pairs.tolist(), rng.choice([50.0, 200.0, 600.0], 30)))
             if a != b], codes)
        config = ControlConfig(container_capacity_mbps=1000.0,
                               internet_bandwidth_mbps=300.0,
                               premium_bandwidth_mbps=300.0, max_hops=3)
        gateways = {c: int(g) for c, g in
                    zip(codes, rng.integers(0, 3, size=n))}
        yield (snapshot(codes, lat, loss), streams, config, gateways,
               "latency_desc")


def test_the_differential_reaches_rebuilds_and_the_fallback():
    rebuilt = fell_back = 0
    for case in seeded_solves(40):
        (restricted, fallback), (oracle, __) = (solve(*case, full=False),
                                               solve(*case, full=True))
        assert restricted == oracle
        rebuilt += restricted["graph_rebuilds"] >= 2
        fell_back += fallback
    assert rebuilt >= 5 and fell_back >= 5


# ----------------------------------------------------------- work budget
@pytest.fixture(scope="module")
def planet():
    """100 regions, the cohort SIB's streams and a mid-epoch snapshot;
    a solve runs with 8 gateways per region, then uncapacitated."""
    underlay = planet_underlay(100, seed=7, horizon_s=900.0)
    streams = CohortWorkload(seed=7, cohorts_per_pair=2).decompose(
        TrafficMatrix.from_model(DemandModel(underlay.regions, seed=7),
                                 8 * 3600.0))
    return underlay, streams, underlay.snapshot(450.0), ControlConfig()


def both_runs(planet):
    underlay, streams, snap, config = planet
    context = EpochSolveContext()
    for gateways in ({c: 8 for c in underlay.codes}, None):
        yield path_control(streams, underlay.codes, snap, config,
                           gateways=gateways, fees=underlay.pricing,
                           context=context)


def test_no_rebuild_solves_more_rows_than_sources_with_demand(planet,
                                                              monkeypatch):
    """At 100 regions (cohort SIB, 8 gateways per region, then the
    uncapacitated run), each DP solves at most one row per distinct
    source region that still has unplaced demand."""
    streams = planet[1]
    src = streams.src.tolist()

    #: The demand the solve under way has left, once it has placed.
    live = {}
    place = pathcontrol._place

    def placing(values, remaining, order, rows):
        live["remaining"] = remaining
        return place(values, remaining, order, rows)

    solved = []  # (DP rows, sources with unplaced demand) per DP
    dp_layers = pathcontrol._dp_layers

    def counting(w, rows, n_layers):
        remaining = live.get("remaining", streams.mbps).tolist()
        solved.append((len(rows), len({src[p] for p, left in
                                       enumerate(remaining)
                                       if left > 1e-9})))
        return dp_layers(w, rows, n_layers)

    monkeypatch.setattr(pathcontrol, "_place", placing)
    monkeypatch.setattr(pathcontrol, "_dp_layers", counting)
    for result in both_runs(planet):
        live.clear()
        assert result.graph_rebuilds >= 2
    assert len(solved) > 6
    assert all(rows <= unplaced for rows, unplaced in solved)
    # The restriction bites: most rebuilds solve well under 100 rows.
    assert sum(rows < 60 for rows, __ in solved) > len(solved) // 2


def test_placement_rounds_stay_within_caps_and_spent_slots(planet,
                                                          monkeypatch):
    """At 100 regions, a sweep places its streams in at most one round
    (`pathcontrol.place_rounds`) per partial take and per slot its takes
    spend, plus one; a run interns its routes once
    (`pathcontrol.route_interns`), not once per placement."""
    sweeps = []  # (rounds, partial takes, newly spent slots) per sweep
    place = pathcontrol._place

    def counting(values, remaining, order, rows):
        before, want = values.copy(), remaining[order]
        rounds = hub.metrics.counter("pathcontrol.place_rounds").value
        take = place(values, remaining, order, rows)
        sweeps.append((
            hub.metrics.counter("pathcontrol.place_rounds").value - rounds,
            int(((take > 0.0) & (take < want)).sum()),
            int(((before > 1e-9) & (values <= 1e-9)).sum())))
        return take

    monkeypatch.setattr(pathcontrol, "_place", counting)
    with obs.capture() as hub:
        placed = sum(result.route.size for result in both_runs(planet))
        counters = hub.metrics.snapshot()
    assert all(rounds <= partial + spent + 1
               for rounds, partial, spent in sweeps), sweeps
    # Caps and spent slots happen, and take rounds of their own.
    assert sum(rounds for rounds, __, __ in sweeps) > 2 * len(sweeps)
    assert counters["pathcontrol.route_interns"]["value"] \
        == counters["pathcontrol.runs"]["value"] == 2
    assert placed > 1000


@pytest.fixture()
def forced_fallback():
    """Three regions, one carrying the only (lossy) link out of R0."""
    lat = np.full((2, 3, 3), INF)
    lat[:, 0, 1] = 10.0
    lat[:, 1, 2] = 10.0
    loss = np.zeros((2, 3, 3))
    loss[:, 0, 1] = 0.01
    return snapshot(names(3), lat, loss)


def test_the_fallback_pass_solves_only_the_leftover_sources(
        forced_fallback, monkeypatch):
    """R0's stream needs the best-effort pass, R1's is placed: the
    rebuild and the fallback graph have R0's row alone."""
    streams = table_of([Stream(0, "R0", "R2", 10.0, VIDEO_PROFILES[0]),
                        Stream(1, "R1", "R2", 10.0, VIDEO_PROFILES[0])],
                       names(3))
    rows = []
    dp_layers = pathcontrol._dp_layers
    monkeypatch.setattr(pathcontrol, "_dp_layers",
                        lambda w, r, k: rows.append(r.tolist())
                        or dp_layers(w, r, k))
    result = path_control(streams, names(3), forced_fallback,
                          ControlConfig(), gateways=None)
    assert rows == [[0, 1, 2], [0], [0]] and result.graph_rebuilds == 1
    assert result.meets.tolist() == [True, False] and result.unassigned_at == []
