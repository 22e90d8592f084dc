"""Algorithm 1's array-pass placement against the scalar sweep.

`path_control` places each sweep's streams with `_place` (full takes
committed in rounds, flagged streams given the scalar rule) and interns
a run's routes with one `np.unique` (`_RouteTable.intern`).  Against
the loop it replaced (`tests/controlplane/sweep_oracle.py`), on drawn
stream tables, both runs of an epoch sharing one context (capacitated,
then uncapacitated), every ordering and the best-effort pass, bit for
bit: every column, the route table, the final residual vector,
`unassigned` and `graph_rebuilds`.

The pools hold ties (many streams of one pair on one route, equal
wants), wants at the 1e-9 thresholds, capacities the wants fill
exactly or to within 1e-9, and sums whose running value depends on the
order of the subtractions (0.3 + 0.3 + 0.3), so a commit that sums
before it subtracts, a flag check without its rounding margin or an
interning order other than first-seen shows.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.controlplane import model, pathcontrol
from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import (ORDERINGS, EpochSolveContext,
                                            path_control)
from repro.traffic.streams import VIDEO_PROFILES, Stream
from repro.underlay.snapshot import LinkStateSnapshot
from tests.controlplane import sweep_oracle
from tests.tables import table_of

INF = math.inf

#: Links: ties (10 + 20 == 30), a missing link, and a loss over the
#: default limit (only the best-effort pass may use such a link).
POOLS = {"latency": [10.0, 20.0, 30.0, 30.0, INF],
         "loss": [0.0, 0.0, 0.0, 0.01],
         "want": [0.1, 0.2, 0.3, 0.7, 0.5, 1.0, 1.0, 2.5, 1e-9, 2e-9,
                  5e-10, 1e-9 + 1e-17, 0.3 - 1e-9],
         "capacity": [0.6, 1.0, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.3,
                      0.7 + 1e-9, 2.0, 1e-9]}
LATENCIES, LOSSES, WANTS, CAPACITIES = (
    st.sampled_from(POOLS[name])
    for name in ("latency", "loss", "want", "capacity"))


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
def solves(draw):
    """A world over 2-5 regions, up to 30 streams over few pairs, tight
    capacities, gateways or none, a hop limit, an ordering and a scan
    window (small ones make a sweep's rounds span several windows)."""
    n = draw(st.integers(2, 5))
    codes = names(n)
    cells = 2 * n * n
    snap = snapshot(codes,
                    draw(st.lists(LATENCIES, min_size=cells, max_size=cells)),
                    draw(st.lists(LOSSES, min_size=cells, max_size=cells)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          min_size=1, max_size=3))
    raw = draw(st.lists(st.tuples(st.sampled_from(pairs), WANTS),
                        min_size=1, max_size=30))
    streams = [Stream(i, codes[a], codes[b], mbps, VIDEO_PROFILES[0])
               for i, ((a, b), mbps) in enumerate(raw) if a != b]
    capacity = draw(CAPACITIES)
    config = ControlConfig(internet_bandwidth_mbps=draw(CAPACITIES),
                           premium_bandwidth_mbps=draw(CAPACITIES),
                           max_hops=draw(st.integers(1, 3)))
    gateways = draw(st.fixed_dictionaries(
        {c: st.integers(0, 3) for c in codes}))
    return (snap, table_of(streams, codes), config, capacity, gateways,
            draw(st.sampled_from(ORDERINGS)),
            draw(st.sampled_from([1, 2, 3, pathcontrol.PLACE_WINDOW])))


def observed(result, values, routes):
    """Every observable of one run, floats as hex."""
    return {"position": list(result.position), "route": list(result.route),
            "mbps": [float(m).hex() for m in result.mbps],
            "meets": [bool(m) for m in result.meets],
            "unassigned_at": list(result.unassigned_at),
            "residual": [r.hex() for r in result.residual],
            "graph_rebuilds": result.graph_rebuilds,
            "values": [float(v).hex() for v in values],
            "routes": routes}


def solved(snap, streams, config, capacity, gateways, ordering,
           window=pathcontrol.PLACE_WINDOW):
    """The capacitated run (`capacity` Mbps per container), then the
    uncapacitated one on its context, scanning in `window`-stream
    windows."""
    values = []
    residuals, place_window = pathcontrol._residuals, pathcontrol.PLACE_WINDOW

    def kept(*args):
        values.append(residuals(*args))
        return values[-1]

    context, runs = EpochSolveContext(), []
    for gws in (gateways, None):
        pathcontrol._residuals = kept
        pathcontrol.PLACE_WINDOW = window
        try:
            with mock.patch.object(model, "CONTAINER_CAPACITY_MBPS",
                                   capacity):
                result = path_control(streams, snap.codes, snap, config,
                                      gateways=gws, ordering=ordering,
                                      context=context)
        finally:
            pathcontrol._residuals = residuals
            pathcontrol.PLACE_WINDOW = place_window
        table = result.routes
        routes = [(row[:2 * h + 1], lat.hex(), loss.hex())
                  for row, h, lat, loss in zip(
                      table.rows.tolist(), table.hops.tolist(),
                      table.latency_ms.tolist(), table.loss_rate.tolist())]
        runs.append(observed(result, values[-1][:-1], routes))
    return runs


def oracle(snap, streams, config, capacity, gateways, ordering,
           window=None):
    context, runs = sweep_oracle.Context(), []
    for gws in (gateways, None):
        with mock.patch.object(model, "CONTAINER_CAPACITY_MBPS", capacity):
            result = sweep_oracle.path_control(
                streams, snap.codes, snap, config, gateways=gws,
                ordering=ordering, context=context)
        table = result.routes
        routes = [(row, lat.hex(), loss.hex()) for row, lat, loss
                  in zip(table.rows, table.latency_ms, table.loss_rate)]
        runs.append(observed(result, result.values, routes))
    return runs


def one_link(capacity, wants):
    """R0 -> R1 over one Internet link of `capacity`, in input order
    (the streams tie on latency, and every ordering's sort is stable)."""
    lat = np.full((2, 2, 2), INF)
    lat[0, 0, 1] = 10.0
    streams = [Stream(i, "R0", "R1", mbps, VIDEO_PROFILES[0])
               for i, mbps in enumerate(wants)]
    return (snapshot(names(2), lat, np.zeros((2, 2, 2))),
            table_of(streams, names(2)),
            ControlConfig(internet_bandwidth_mbps=capacity),
            model.CONTAINER_CAPACITY_MBPS, None, "latency_desc")


#: (C - w1) - w2 is one ulp below C - (w1 + w2) = w3: the third stream
#: is capped, though a running sum shows it a full take.
ROUNDED = one_link(1073741824.5, [152473943.042, 167654267.541,
                                  753613613.917])
#: ((1.0 - 0.3) - 0.3) - 0.3 is 0.09999999999999998, 1.0 - 0.9 is
#: 0.10000000000000009: the fourth stream is capped.
ORDER_SENSITIVE = one_link(1.0, [0.3, 0.3, 0.3, 0.1])


@given(solves())
@example(ROUNDED)
@example((*ROUNDED, 1))
@example(ORDER_SENSITIVE)
@example(one_link(1.0 + 1e-9, [1.0, 1e-9, 2e-9]))
@settings(max_examples=200, deadline=None)
def test_array_placement_equals_the_scalar_sweep(case):
    assert solved(*case) == oracle(*case)


def seeded_cases(count: int):
    """`count` solves from a seeded generator over the drawn pools."""
    rng, pools = np.random.default_rng(5), POOLS
    for __ in range(count):
        n = int(rng.integers(2, 6))
        codes = names(n)
        snap = snapshot(codes, rng.choice(pools["latency"], 2 * n * n),
                        rng.choice(pools["loss"], 2 * n * n))
        pairs = rng.integers(0, n, size=(3, 2)).tolist()
        streams = [Stream(i, codes[a], codes[b], float(mbps),
                          VIDEO_PROFILES[0])
                   for i, ((a, b), mbps) in enumerate(zip(
                       (pairs[k] for k in rng.integers(0, 3, 30)),
                       rng.choice(pools["want"], 30))) if a != b]
        capacity = float(rng.choice(pools["capacity"]))
        config = ControlConfig(
            internet_bandwidth_mbps=float(rng.choice(pools["capacity"])),
            premium_bandwidth_mbps=float(rng.choice(pools["capacity"])),
            max_hops=int(rng.integers(1, 4)))
        gateways = {c: int(g) for c, g in
                    zip(codes, rng.integers(0, 4, size=n))}
        yield (snap, table_of(streams, codes), config, capacity, gateways,
               ORDERINGS[int(rng.integers(len(ORDERINGS)))],
               int(rng.choice([1, 2, 3, pathcontrol.PLACE_WINDOW])))


def test_the_differential_reaches_caps_spent_slots_and_the_fallback(
        monkeypatch):
    """The pools make streams that a residual caps, streams blocked on
    a spent slot, and best-effort graphs; and no sweep takes more rounds
    than it has partial takes and newly spent slots, plus one."""
    stats = {"capped": 0, "blocked": 0, "fallback": 0}
    place = pathcontrol._place

    def counting(values, remaining, order, rows):
        before, want = values.copy(), remaining[order]
        rounds = hub.metrics.counter("pathcontrol.place_rounds").value
        take = place(values, remaining, order, rows)
        capped = int(((take > 0.0) & (take < want)).sum())
        spent = int(((before > 1e-9) & (values <= 1e-9)).sum())
        assert hub.metrics.counter("pathcontrol.place_rounds").value \
            - rounds <= capped + spent + 1
        stats["capped"] += capped
        stats["blocked"] += int(((rows[:, 0] >= 0) & (want > 1e-9)
                                 & (take == 0.0)).sum())
        return take

    monkeypatch.setattr(pathcontrol, "_place", counting)
    for case in seeded_cases(40):
        with obs.capture() as hub:
            runs = solved(*case)
            counters = hub.metrics.snapshot()
        stats["fallback"] += int(
            counters["pathcontrol.snapshot_reuses"]["value"]
            - counters["pathcontrol.graph_rebuilds"]["value"]
            if "pathcontrol.snapshot_reuses" in counters else 0)
        assert runs == oracle(*case)
    assert min(stats.values()) >= 5, stats


def test_a_capped_take_is_the_sequential_residual():
    snap, streams, config, __, __, __ = ROUNDED
    result = path_control(streams, snap.codes, snap, config)
    assert float(result.mbps[2]).hex() == float(
        (1073741824.5 - 152473943.042) - 167654267.541).hex()
    assert result.mbps[2] < streams.mbps[2]
