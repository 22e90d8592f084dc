"""Algorithm 1's greedy loop as it was before placement became array
passes: one Python visit per stream per sweep, over flat lists of the
graph build, interning each placed route by its row's bytes.  Kept as
the oracle `repro.controlplane.pathcontrol._place` and
`_RouteTable.intern` are tested against (`test_sweep_differential.py`).
`path_control` is the solver's, with `sweep` moved here verbatim; the
residual vector and the remaining demands are Python lists again, and
`FlatPaths` hands the sweep a build as the flat lists it reads.
Nothing in `src/` imports this module.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.controlplane import model, pathcontrol
from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import (ORDERINGS, EpochSolveContext,
                                            _ShortestPaths)
from repro.traffic.streams import StreamTable
from repro.underlay.linkstate import LinkType
from repro.underlay.pricing import PricingModel
from repro.underlay.snapshot import TYPE_INDEX, LinkStateSnapshot


def residuals(codes: List[str], config: ControlConfig,
              gateways: Optional[Dict[str, int]]) -> List[float]:
    """The residual vector ``[region | Internet | premium]`` as a list."""
    n = len(codes)
    if gateways is None:
        region = [float("inf")] * n
    else:
        region = [float(model.CONTAINER_CAPACITY_MBPS * gateways.get(c, 0))
                  for c in codes]
    premium = [float(config.premium_bandwidth_mbps)] * (n * n)
    premium[::n + 1] = [0.0] * n
    return region + [float(config.internet_bandwidth_mbps)] * n + premium


class FlatPaths:
    """A `_ShortestPaths` build as flat lists: ``rows[k * width : k *
    width + 2 * hops[k] + 1]`` is pair ``k``'s resource row and ``keys[k
    * stride : (k + 1) * stride]`` its padded row's bytes."""

    def __init__(self, sp: _ShortestPaths):
        self.sp, self.width, self.dist = sp, sp.width, sp.dist
        self.hops: List[int] = sp.hops.tolist()
        self.rows: List[int] = sp.rows.ravel().tolist()
        self.keys = sp.rows.tobytes()
        self.stride = self.width * sp.rows.itemsize
        self.latency_ms: List[float] = sp.latency_ms.tolist()
        self.loss_rate: List[float] = sp.loss_rate.tolist()

    def index(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return self.sp.index(src, dst)


class RouteTable:
    """Routes interned one placement at a time, by their row's bytes."""

    def __init__(self):
        self.ids: Dict[bytes, int] = {}
        self.rows: List[List[int]] = []
        self.latency_ms: List[float] = []
        self.loss_rate: List[float] = []

    def add(self, key: bytes, row: List[int], latency_ms: float,
            loss_rate: float) -> int:
        rid = self.ids[key] = len(self.rows)
        self.rows.append(row)
        self.latency_ms.append(latency_ms)
        self.loss_rate.append(loss_rate)
        return rid


class Result:
    """The columns of one run, as lists, and its final residual vector."""

    def __init__(self, routes: RouteTable):
        self.routes = routes
        self.position: List[int] = []
        self.route: List[int] = []
        self.mbps: List[float] = []
        self.meets: List[bool] = []
        self.unassigned_at: List[int] = []
        self.residual: List[float] = []
        self.values: List[float] = []
        self.graph_rebuilds = 0


class Context:
    """An `EpochSolveContext` whose route table is a `RouteTable`."""

    def __init__(self):
        self.solver = EpochSolveContext()
        self.routes = RouteTable()


def path_control(streams: StreamTable, codes: List[str],
                 snap: LinkStateSnapshot, config: ControlConfig,
                 gateways: Optional[Dict[str, int]] = None,
                 fees: Optional[PricingModel] = None,
                 ordering: str = "latency_desc",
                 context: Optional[Context] = None) -> Result:
    """`repro.controlplane.pathcontrol.path_control` with the scalar
    sweep."""
    assert ordering in ORDERINGS
    codes = list(codes)
    snap.ensure(codes)
    ctx = context if context is not None else Context()
    weights, routes = ctx.solver.weights(snap, config, fees), ctx.routes
    values = residuals(codes, config, gateways)
    sp = FlatPaths(ctx.solver.first_shortest_paths(
        weights, config, np.array(values)))
    result = Result(routes)

    src_idx, dst_idx = streams.src, streams.dst
    remaining: List[float] = streams.mbps.tolist()

    lat_premium = snap.lat[TYPE_INDEX[LinkType.PREMIUM]]
    limits: List[float] = np.maximum(
        model.LATENCY_LIMIT_FLOOR_MS,
        model.LATENCY_LIMIT_STRETCH * lat_premium[src_idx, dst_idx]).tolist()

    def ordered(active: List[int], sp: FlatPaths
                ) -> Tuple[List[int], List[int]]:
        pos = np.asarray(active, dtype=np.intp)
        flat = sp.index(src_idx[pos], dst_idx[pos])
        if ordering == "demand_desc":
            keys = -streams.mbps[pos]
        else:
            lat = sp.dist[flat]
            keys = np.where(np.isfinite(lat), lat, 0.0)
            if ordering == "latency_desc":
                keys = -keys
        order = np.argsort(keys, kind="stable")
        return pos[order].tolist(), flat[order].tolist()

    loss_limit, route_ids = pathcontrol.LOSS_LIMIT, routes.ids
    position, route = result.position, result.route
    amount, meets = result.mbps, result.meets

    def sweep(order: List[int], flat: List[int], sp: FlatPaths,
              quality: bool) -> List[int]:
        """Visit the streams at positions `order` once, each taking as
        much of its remaining demand as its current route's tightest
        residual allows; returns those that could not be placed in
        full.  `flat` holds each one's pair index into `sp`.  `quality`
        is False on the best-effort pass, whose assignments never meet
        the constraints."""
        hops, rows, width = sp.hops, sp.rows, sp.width
        keys, stride = sp.keys, sp.stride
        latency_ms, loss_rate = sp.latency_ms, sp.loss_rate
        blocked: List[int] = []
        for p, k in zip(order, flat):
            want = remaining[p]
            if want <= 0:
                continue
            n_hops = hops[k]
            if not n_hops:
                blocked.append(p)  # no route on this graph
                continue
            start = k * width
            end = start + 2 * n_hops + 1
            take = want
            for slot in range(start, end):
                residual = values[rows[slot]]
                if residual < take:
                    take = residual
            if take <= 1e-9:
                blocked.append(p)  # a resource on the route is spent
                continue
            row = rows[start:end]
            for r in row:
                values[r] -= take
            remaining[p] = left = want - take
            key = keys[k * stride:(k + 1) * stride]
            rid = route_ids.get(key)
            if rid is None:
                rid = routes.add(key, row, latency_ms[k], loss_rate[k])
            position.append(p)
            route.append(rid)
            amount.append(take)
            meets.append(quality and latency_ms[k] <= limits[p]
                         and loss_rate[k] <= loss_limit)
            if left > 1e-9:
                blocked.append(p)  # leftover demand needs another path
        return blocked

    def rebuilt(unplaced: List[int], enforce_loss: bool) -> FlatPaths:
        return FlatPaths(_ShortestPaths(weights, config, values,
                                        np.unique(src_idx[unplaced]),
                                        enforce_loss))

    active: List[int] = np.flatnonzero(streams.mbps > 0).tolist()
    rebuilds = 0
    while active:
        placed = len(position)
        blocked = sweep(*ordered(active, sp), sp, True)
        active = [p for p in blocked if remaining[p] > 1e-9]
        if not active or len(position) == placed:
            break
        if rebuilds == pathcontrol.REBUILD_BUDGET:
            warnings.warn("path_control exhausted its rebuild budget",
                          UserWarning, stacklevel=2)
            break
        sp = rebuilt(active, True)
        rebuilds += 1

    leftover: List[int] = np.flatnonzero(
        np.array(remaining) > 1e-9).tolist()
    if leftover:
        sp = rebuilt(leftover, False)
        sweep(leftover,
              sp.index(src_idx[leftover], dst_idx[leftover]).tolist(),
              sp, False)

    left = np.array(remaining)
    unassigned = np.flatnonzero(left > 1e-9)
    result.unassigned_at = unassigned.tolist()
    result.residual = left[unassigned].tolist()
    result.values = values
    result.graph_rebuilds = rebuilds
    return result
