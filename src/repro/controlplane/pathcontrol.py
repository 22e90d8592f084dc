"""Algorithm 1: path control on the current topology (§5.3, step 1).

The paper's heuristic: repeatedly build the shortest-path graph over the
hybrid topology, sort the remaining streams by latency in *descending*
order (long paths are the most likely to break their quality bound, so
they get first pick of good paths), assign each stream as much of its
demand as the path's residual capacity allows, and update capacities.

Implementation notes:

* Shortest paths are computed with a hop-limited min-plus DP over dense
  numpy matrices (N <= a few hundred regions), with per-edge choice
  between the Internet and the premium link by weighted cost
  (latency + loss penalty + egress-fee penalty).  The fee penalty is what
  makes the hybrid prefer cheap Internet links when their quality
  suffices and fail over to premium links otherwise.
* The paper rebuilds the shortest-path graph after every assignment.
  Rebuilding is only *observable* when an assignment saturates an edge or
  region, so we rebuild lazily: a full pass assigns streams against
  current paths, and the graph is rebuilt whenever a capacity constraint
  blocks someone.  The result is identical and orders of magnitude
  faster, which the controller needs at planetary scale.
* A rebuild solves only the live graph: the DP rows of the source
  regions of the streams the next sweep visits (the unplaced ones; for
  the best-effort pass, the leftover ones), over the regions that still
  have capacity; the epoch's first build solves every source.  This is
  exact.  Row ``i`` of every DP layer reads only row ``i`` of the
  previous layer and the edge matrix ``w``, and route reconstruction
  takes each prefix from the same row, so a row's routes do not depend
  on which other rows are solved.  A region with no capacity left has,
  in a full build, an all-inf row and column in ``w`` (every edge
  touching it is unusable): as a relay it never attains a finite
  minimum, so argmin's first-minimum choice among the remaining relays,
  kept in region order, is unchanged; as a source or destination its
  pairs have no route (0 hops, distance inf), which is what a pair
  outside the restricted table reads.
* Link state arrives as one `LinkStateSnapshot` per call.  The
  latency/loss/fee matrices and the capacity-independent edge weights
  are shared by **every** graph rebuild within the call — only the
  residual-capacity masks change between rebuilds.
* The solve runs on integers and arrays.  Its input is the columns of
  a `StreamTable`.  A graph build reconstructs every pair's route at
  once (`_ShortestPaths`): latency, loss and a *resource row* — the
  indices, in one flat residual vector ``[region | Internet |
  premium]``, of everything the route draws capacity from.  The greedy
  loop reads one row per visit and appends ``(stream position, route
  id, mbps, meets)`` to the columns of a `PathControlResult`; a blocked
  visit allocates nothing.  Distinct routes are interned once per epoch
  (`_RouteTable`); forwarding tables are built from the route rows, and
  `Stream` / `OverlayPath` / `Assignment` objects only when a consumer
  outside the epoch reads `PathControlResult.assignments` or
  ``.unassigned``.
* An `EpochSolveContext` threaded through the capacitated run and
  capacity control's uncapacitated run shares the edge-weight build,
  the first DP build and the route table between them; output is
  bit-identical with and without one.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.controlplane.model import ControlConfig, OverlayPath
from repro.obs import telemetry as _telemetry
from repro.traffic.streams import Stream, StreamTable
from repro.underlay.linkstate import LinkType
from repro.underlay.pricing import PricingModel
from repro.underlay.snapshot import TYPE_INDEX, TYPE_ORDER, LinkStateSnapshot

_TEL = _telemetry()

_INTERNET = TYPE_INDEX[LinkType.INTERNET]

#: Per-pricing-model cache of (codes tuple) -> (2, N, N) fee matrices.
#: Egress fees are immutable per `PricingModel`, so the matrix is built
#: once per (pricing, region set) for the life of the process.
_FeeCache = Dict[Tuple[str, ...], np.ndarray]
_FEE_CACHE: "weakref.WeakKeyDictionary[PricingModel, _FeeCache]" = \
    weakref.WeakKeyDictionary()


def _fee_matrix(codes: List[str],
                fees: Optional[PricingModel]) -> np.ndarray:
    """(2, N, N) egress-fee matrix in `TYPE_ORDER`, cached per model."""
    n = len(codes)
    if fees is None:
        return np.zeros((2, n, n))
    per_model = _FEE_CACHE.setdefault(fees, {})
    key = tuple(codes)
    cached = per_model.get(key)
    if cached is not None:
        return cached
    fee = np.zeros((2, n, n))
    for ti, t in enumerate(TYPE_ORDER):
        for i, a in enumerate(codes):
            for j, b in enumerate(codes):
                if i == j:
                    continue
                fee[ti, i, j] = (fees.internet_fee(a)
                                 if t is LinkType.INTERNET
                                 else fees.premium_fee(a, b))
    per_model[key] = fee
    return fee


@dataclass
class Assignment:
    """One stream (or stream fraction) placed on one overlay path."""

    stream: Stream
    path: OverlayPath
    mbps: float
    latency_ms: float
    loss_rate: float
    meets_constraints: bool


#: One forwarding-table row: (next region, link type).
Entry = Tuple[str, LinkType]


class _RouteTable:
    """The distinct routes one epoch's solver calls placed traffic on.

    A route *is* its resource row: the region ids in path order, then
    one id per hop — ``N + a`` for an Internet hop out of region ``a``,
    ``2N + a * N + b`` for the premium link ``a -> b`` — all indices
    into the residual vector; its forwarding-table rows, its
    `OverlayPath` and every usage sum derive from it.  Routes are
    interned by the row's bytes, so both runs and every graph rebuild
    share one id — and one `OverlayPath`, built the first time an
    assignment object needs it — per distinct route.
    """

    def __init__(self, codes: List[str]):
        self.codes = codes
        self.ids: Dict[bytes, int] = {}
        self.rows: List[List[int]] = []
        self.latency_ms: List[float] = []
        self.loss_rate: List[float] = []
        self._paths: Dict[int, OverlayPath] = {}

    def add(self, key: bytes, row: List[int], latency_ms: float,
            loss_rate: float) -> int:
        rid = self.ids[key] = len(self.rows)
        self.rows.append(row)
        self.latency_ms.append(latency_ms)
        self.loss_rate.append(loss_rate)
        return rid

    def path(self, rid: int) -> OverlayPath:
        path = self._paths.get(rid)
        if path is None:
            codes, row = self.codes, self.rows[rid]
            n_hops, premium_base = len(row) // 2, 2 * len(codes)
            regions = tuple([codes[r] for r in row[:n_hops + 1]])
            hops = tuple([
                (regions[h], regions[h + 1],
                 LinkType.INTERNET if row[n_hops + 1 + h] < premium_base
                 else LinkType.PREMIUM) for h in range(n_hops)])
            path = self._paths[rid] = OverlayPath.unchecked(hops, regions)
        return path


class PathControlResult:
    """One run of Algorithm 1: parallel columns ``(stream position,
    route id, mbps, meets)``, one row per assignment in assignment
    order, over the input `StreamTable` and the epoch's `_RouteTable`;
    and the positions of the streams no capacity could carry in full,
    with the Mbps each has left.

    Capacity control, the installs and both engines read the columns
    and what derives from them (`usage`, `used_gateways`,
    `forwarding_tables`).  `assignments` and `unassigned` are the object
    forms experiments read, built once, on first read.
    """

    def __init__(self, streams: StreamTable, routes: _RouteTable,
                 config: ControlConfig):
        self.streams = streams
        self.routes = routes
        self.config = config
        self.position: List[int] = []
        self.route: List[int] = []
        self.mbps: List[float] = []
        self.meets: List[bool] = []
        self.unassigned_at: List[int] = []
        self.residual: List[float] = []
        #: Number of shortest-path graph rebuilds (scalability diagnostic).
        self.graph_rebuilds = 0

    def total_assigned_mbps(self) -> float:
        return float(sum(self.mbps))

    def usage(self) -> Tuple[List[float], List[float], Dict[int, float]]:
        """Mbps per region, Internet egress per region and premium
        usage per premium resource id, summed in assignment order."""
        n, rows = len(self.routes.codes), self.routes.rows
        traffic, egress = [0.0] * n, [0.0] * n
        premium: Dict[int, float] = {}
        for rid, mbps in zip(self.route, self.mbps):
            for r in rows[rid]:
                if r < n:
                    traffic[r] += mbps
                elif r < 2 * n:
                    egress[r - n] += mbps
                else:
                    premium[r] = premium.get(r, 0.0) + mbps
        return traffic, egress, premium

    @cached_property
    def _usage(self) -> Tuple[List[float], List[float], Dict[int, float]]:
        return self.usage()

    @cached_property
    def used_gateways(self) -> Dict[str, int]:
        """Gateways needed per region: ceil(traffic x headroom / B_c)."""
        config = self.config
        return {c: int(np.ceil(mbps * config.capacity_headroom
                               / config.container_capacity_mbps))
                for c, mbps in zip(self.routes.codes, self._usage[0])}

    @cached_property
    def internet_egress(self) -> Dict[str, float]:
        return dict(zip(self.routes.codes, self._usage[1]))

    @cached_property
    def premium_usage(self) -> Dict[Tuple[str, str], float]:
        codes, n = self.routes.codes, len(self.routes.codes)
        return {(codes[(r - 2 * n) // n], codes[(r - 2 * n) % n]): mbps
                for r, mbps in self._usage[2].items()}

    @cached_property
    def forwarding_tables(self) -> Dict[str, Dict[int, Entry]]:
        """region -> stream id -> (next region, link type), written
        assignment by assignment, hop by hop: a split stream's later
        pieces overwrite the rows of its earlier ones.  Entries are one
        shared tuple per distinct next hop."""
        codes, rows = self.routes.codes, self.routes.rows
        n = len(codes)
        tables: Dict[str, Dict[int, Entry]] = {c: {} for c in codes}
        by_region = [tables[c] for c in codes]
        #: Next region id (+ N for a premium hop) -> its entry.
        entries: Dict[int, Entry] = {}
        stream_ids = self.streams.stream_id.tolist()
        for p, rid in zip(self.position, self.route):
            sid, row = stream_ids[p], rows[rid]
            n_hops = len(row) // 2
            for h in range(n_hops):
                b = row[h + 1]
                key = b if row[n_hops + 1 + h] < 2 * n else b + n
                entry = entries.get(key)
                if entry is None:
                    entry = entries[key] = (
                        codes[b], LinkType.INTERNET if key < n
                        else LinkType.PREMIUM)
                by_region[row[h]][sid] = entry
        return tables

    @cached_property
    def assignments(self) -> List[Assignment]:
        """One `Assignment` per row, in assignment order."""
        streams, routes = self.streams.streams(), self.routes
        latency_ms, loss_rate = routes.latency_ms, routes.loss_rate
        return [Assignment(streams[p], routes.path(rid), mbps,
                           latency_ms[rid], loss_rate[rid], meets)
                for p, rid, mbps, meets in zip(self.position, self.route,
                                               self.mbps, self.meets)]

    @cached_property
    def unassigned(self) -> List[Tuple[Stream, float]]:
        """The streams (with residual Mbps) no capacity could carry."""
        streams = self.streams.streams()
        return [(streams[p], residual)
                for p, residual in zip(self.unassigned_at, self.residual)]


def _residuals(codes: List[str], config: ControlConfig,
               gateways: Optional[Dict[str, int]]) -> List[float]:
    """Residual capacities at the start of one run of Algorithm 1: one
    flat vector ``[region (N) | Internet egress (N) | premium pair
    (N * N, row-major)]`` — a Python list, because the greedy loop reads
    and writes single elements (what numpy is slowest at).  A route's
    *resource row* is a list of indices into it.
    """
    n = len(codes)
    if gateways is None:
        # Step 2 runs uncapacitated on the region dimension.
        region = [float("inf")] * n
    else:
        region = [float(config.container_capacity_mbps * gateways.get(c, 0))
                  for c in codes]
    premium = [float(config.premium_bandwidth_mbps)] * (n * n)
    premium[::n + 1] = [0.0] * n
    return region + [float(config.internet_bandwidth_mbps)] * n + premium


class _EdgeWeights:
    """Capacity-independent edge data, shared by all graph rebuilds.

    Built once per `path_control` call (or once per epoch via an
    `EpochSolveContext`) from the epoch's snapshot: the weighted edge
    cost (latency + loss penalty + fee penalty) and the quality masks.
    A rebuild only re-applies the residual-capacity masks on top.
    """

    def __init__(self, snap: LinkStateSnapshot, config: ControlConfig,
                 fees: Optional[PricingModel]):
        self.lat = snap.lat
        self.loss = snap.loss
        self.weight = (self.lat + config.loss_ms_penalty * self.loss
                       + config.cost_ms_per_fee
                       * _fee_matrix(snap.codes, fees))
        # An edge is quality-usable if its own loss does not already
        # violate the path loss budget; the best-effort fallback pass
        # only requires the link to exist (finite latency).
        self.quality_ok = self.loss <= config.loss_limit
        self.exists = np.isfinite(self.lat)


#: Row-chunk size for the DP inner buffer (fits L2 at N<=500).
_DP_ROW_CHUNK = 8


def _dp_layers(w: np.ndarray, rows: np.ndarray, n_layers: int
               ) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Hop-limited min-plus DP over the source rows `rows` of `w`.

    Returns (dist, vias, improved) with per-layer via/improved matrices,
    one row per entry of `rows`.  Row ``i`` of every layer reads only
    row ``i`` of the previous layer and `w`, so a row's values do not
    depend on which other rows are solved.  The add is laid out as
    ``stacked[i, j, m] = dist[i, m] + wT[j, m]`` over the C-contiguous
    transpose so the argmin reduces over the contiguous last axis — the
    same IEEE adds and the same first-minimum tie-breaking as the
    (i, m, j) layout — and the best value is gathered at the argmin
    rather than reduced a second time.  Rows are processed through a
    small reused buffer instead of materialising the (R, N, N) cube:
    identical element-wise operations, but ~3x faster at N=200 (the
    cube's fresh 64 MB allocation per layer is pure page-fault
    overhead).
    """
    n = w.shape[0]
    wT = np.ascontiguousarray(w.T)
    dist = w[rows]
    n_rows = len(rows)
    vias: List[np.ndarray] = []
    improved_layers: List[np.ndarray] = []
    chunk = min(_DP_ROW_CHUNK, max(n_rows, 1))
    buf = np.empty((chunk, n, n))
    for __ in range(n_layers):
        best_m = np.empty((n_rows, n), dtype=np.int64)
        best_val = np.empty((n_rows, n))
        for c0 in range(0, n_rows, chunk):
            c1 = min(c0 + chunk, n_rows)
            b = buf[:c1 - c0]
            np.add(dist[c0:c1, None, :], wT[None, :, :], out=b)
            m = best_m[c0:c1]
            np.argmin(b, axis=2, out=m)
            best_val[c0:c1] = np.take_along_axis(b, m[:, :, None],
                                                 axis=2)[:, :, 0]
        improved = best_val < dist - 1e-12
        vias.append(best_m)
        improved_layers.append(improved)
        dist = np.where(improved, best_val, dist)
    return dist, vias, improved_layers


def _all_routes(dist: np.ndarray, vias: List[np.ndarray],
                improved: List[np.ndarray], sources: np.ndarray,
                regions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair's route from the DP's per-layer predecessors.

    Row ``i`` of the DP starts at region ``sources[i]`` and column ``j``
    is region ``regions[j]`` (relays are column indices too).  Returns
    ``(nodes, hops)``: ``nodes[i, j, :hops[i, j] + 1]`` is the region
    sequence of the best route ``sources[i] -> regions[j]`` (``hops`` 0
    where there is none).  Per-layer predecessors make reconstruction
    respect the hop limit exactly (a single merged predecessor matrix
    could splice a longer prefix in and overshoot it): a pair that
    layer ``k`` improved via ``m`` takes the layer ``k - 1`` route
    ``i -> m`` — from the same row — and appends ``j``: one gather per
    layer over the improved pairs.
    """
    n_rows, n_cols = dist.shape
    nodes = np.zeros((n_rows, n_cols, len(vias) + 2), dtype=np.intp)
    nodes[:, :, 0] = sources[:, None]
    nodes[:, :, 1] = regions[None, :]
    hops = np.ones((n_rows, n_cols), dtype=np.intp)
    for via, better in zip(vias, improved):
        i, j = np.nonzero(better)
        m = via[i, j]
        prefix, prefix_hops = nodes[i, m], hops[i, m]
        prefix[np.arange(i.size), prefix_hops + 1] = regions[j]
        nodes[i, j] = prefix
        hops[i, j] = prefix_hops + 1
    hops[~np.isfinite(dist)] = 0
    return nodes, hops


class _ShortestPaths:
    """Hop-limited shortest routes over the hybrid graph from a set of
    source regions: one route table per build, as flat lists indexed by
    `index` — the source's row times the number of columns, plus the
    destination's column.

    Rows are the given `sources` that still have capacity; columns (and
    relays) are every region that still has capacity, in region order.
    ``hops[k]`` is pair ``k``'s hop count (0: unreachable),
    ``rows[k * width : k * width + 2 * hops[k] + 1]`` its resource row
    (see `_RouteTable`), ``keys[k * stride : (k + 1) * stride]`` the
    padded row's bytes (the interning key), ``latency_ms[k]`` /
    ``loss_rate[k]`` its metrics on the epoch snapshot, accumulated hop
    by hop left to right — the operations of
    `LinkStateSnapshot.path_latency_ms` and of Table 1's
    ``1 - prod(1 - hop loss)`` — and ``dist[k]`` its weighted length.
    A pair outside the table (its source not solved, or an end without
    capacity) indexes one trailing entry: 0 hops, length inf.
    """

    def __init__(self, weights: _EdgeWeights, config: ControlConfig,
                 residuals: List[float], sources: np.ndarray,
                 enforce_loss: bool = True):
        # An edge is unusable if its own loss already violates the path
        # loss budget (unless running the best-effort fallback pass), or
        # if its link has no residual capacity; regions without capacity
        # are left out of the DP below.
        n = weights.lat.shape[1]
        left = np.array(residuals) > 0.0
        usable = (weights.quality_ok if enforce_loss
                  else weights.exists).copy()
        usable[0] &= left[n:2 * n, None]
        usable[1] &= left[2 * n:].reshape(n, n)
        weight = np.where(usable, weights.weight, np.inf)

        # Per-edge best link type (hybrid choice).
        best_type = np.argmin(weight, axis=0)
        w = np.min(weight, axis=0)
        np.fill_diagonal(w, np.inf)

        # Min-plus DP: layer k holds the best distance using <= k+1 hops,
        # over the regions with capacity left and from the live sources.
        region_ok = left[:n]
        live = np.flatnonzero(region_ok)
        col = np.full(n, -1, dtype=np.intp)
        col[live] = np.arange(live.size)
        sources = sources[region_ok[sources]]
        dist, vias, improved = _dp_layers(w[np.ix_(live, live)],
                                          col[sources], config.max_hops - 1)
        nodes, hops = _all_routes(dist, vias, improved, sources, live)
        max_hops = nodes.shape[2] - 1

        a, b = nodes[:, :, :-1], nodes[:, :, 1:]
        link_type = best_type[a, b]
        hop_latency = weights.lat[link_type, a, b]
        hop_survive = 1.0 - weights.loss[link_type, a, b]
        latency, survive = np.zeros(hops.shape), np.ones(hops.shape)
        for h in range(max_hops):
            on_route = hops > h
            latency = np.where(on_route, latency + hop_latency[:, :, h],
                               latency)
            survive = np.where(on_route, survive * hop_survive[:, :, h],
                               survive)

        link = np.where(link_type == _INTERNET, n + a, 2 * n + a * n + b)
        self.width = 2 * max_hops + 1
        rows = np.full(hops.shape + (self.width,), -1, dtype=np.int32)
        for h in range(1, max_hops + 1):
            of_length = hops == h
            rows[of_length, :h + 1] = nodes[of_length, :h + 1]
            rows[of_length, h + 1:2 * h + 1] = link[of_length, :h]
        # The source -> row map, and the trailing entry every pair
        # outside the table indexes.
        self._row = np.full(n, -1, dtype=np.intp)
        self._row[sources] = np.arange(sources.size)
        self._col, self._cols, self._outside = col, live.size, hops.size
        self.dist = np.append(dist.ravel(), np.inf)
        # Flat lists: the greedy loop reads single elements, and a
        # nested ``tolist`` would build one small list per pair.
        self.hops: List[int] = hops.ravel().tolist()
        self.hops.append(0)
        self.rows: List[int] = rows.ravel().tolist()
        self.keys = rows.tobytes()
        self.stride = self.width * rows.itemsize
        self.latency_ms: List[float] = latency.ravel().tolist()
        self.loss_rate: List[float] = (1.0 - survive).ravel().tolist()

    def index(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """The flat index of each region pair ``(src[k], dst[k])``."""
        row, col = self._row[src], self._col[dst]
        return np.where((row >= 0) & (col >= 0), row * self._cols + col,
                        self._outside)


class EpochSolveContext:
    """Shared solver state for one control epoch.

    One context threads through Algorithm 1's capacitated run and
    capacity control's uncapacitated run so they can share what depends
    only on the epoch snapshot:

    * the `_EdgeWeights` build (identical for both runs),
    * the first `_ShortestPaths` build, keyed by which regions start
      with positive capacity — the uncapacitated run's first graph
      equals the capacitated one whenever every region has a gateway,
      which saves an entire DP per epoch,
    * the epoch's `_RouteTable`: one id, one set of metrics and at most
      one `OverlayPath` per distinct route, whichever run or rebuild
      placed traffic on it.

    All of it is value-transparent — results are bit-identical with
    and without a context.  A context serves exactly one (snapshot,
    config, fees) triple: the next epoch makes a new one.
    """

    def __init__(self):
        self._weights: Optional[_EdgeWeights] = None
        self._inputs: Optional[Tuple] = None
        self.routes: Optional[_RouteTable] = None
        self._sp_cache: Dict[bytes, _ShortestPaths] = {}

    def weights(self, snap: LinkStateSnapshot, config: ControlConfig,
                fees: Optional[PricingModel]) -> _EdgeWeights:
        inputs = (snap, config, fees)
        if self._weights is None:
            self._inputs = inputs
            self._weights = _EdgeWeights(snap, config, fees)
            self.routes = _RouteTable(snap.codes)
        elif any(a is not b for a, b in zip(inputs, self._inputs)):
            raise ValueError("an EpochSolveContext serves one (snapshot, "
                             "config, fees); make a new one per epoch")
        return self._weights

    def first_shortest_paths(self, weights: _EdgeWeights,
                             config: ControlConfig,
                             residuals: List[float]) -> _ShortestPaths:
        # Internet and premium capacities start at config constants, so
        # the first usable-mask differs between runs only in which
        # regions start with positive capacity.
        key = bytes(v > 0.0 for v in residuals[:weights.lat.shape[1]])
        sp = self._sp_cache.get(key)
        if sp is not None:
            if _TEL.enabled:
                _TEL.counter("pathcontrol.context_sp_reuses").inc()
            return sp
        sp = self._sp_cache[key] = _ShortestPaths(
            weights, config, residuals, np.arange(weights.lat.shape[1]))
        return sp


#: Stream orderings path_control supports; "latency_desc" is the paper's.
ORDERINGS = ("latency_desc", "latency_asc", "demand_desc", "input")
#: Graph rebuilds one solve may make before its unplaced streams fall
#: through to the best-effort pass (with a warning).
REBUILD_BUDGET = 40


def path_control(streams: StreamTable, codes: List[str],
                 snap: LinkStateSnapshot, config: ControlConfig,
                 gateways: Optional[Dict[str, int]] = None,
                 fees: Optional[PricingModel] = None,
                 ordering: str = "latency_desc",
                 context: Optional[EpochSolveContext] = None
                 ) -> PathControlResult:
    """Run Algorithm 1 over the rows of `streams`.

    `streams` and `snap` are over exactly `codes`, in order.
    `gateways` gives the current per-region container counts; pass None
    to run uncapacitated on the region dimension (used by capacity
    control's second step).  `fees` enables the cost term in edge
    weights.  `ordering` selects the per-pass stream order — the
    paper's latency-descending heuristic by default; the alternatives
    exist for the ordering ablation.  `context` shares per-epoch solver
    state across the epoch's solver calls, which must then pass the
    same snapshot, config and fees objects; results are identical
    without one.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}; choose from "
                         f"{ORDERINGS}")
    codes = list(codes)
    snap.ensure(codes)
    ctx = context if context is not None else EpochSolveContext()
    weights, routes = ctx.weights(snap, config, fees), ctx.routes
    values = _residuals(codes, config, gateways)
    sp = ctx.first_shortest_paths(weights, config, values)
    result = PathControlResult(streams, routes, config)

    if streams.codes != codes:
        raise ValueError(f"stream table regions {streams.codes} do not "
                         f"match the solver's {codes}")
    src_idx, dst_idx = streams.src, streams.dst
    remaining: List[float] = streams.mbps.tolist()

    # Latency limits are anchored to the direct premium latency of each
    # pair (the best the underlay can do).  Vectorised, but element-wise
    # identical to `config.latency_limit_ms` per stream.
    lat_premium = snap.lat[TYPE_INDEX[LinkType.PREMIUM]]
    limits: List[float] = np.maximum(
        config.latency_limit_floor_ms,
        config.latency_limit_stretch * lat_premium[src_idx, dst_idx]).tolist()

    def ordered(active: List[int], sp: _ShortestPaths
                ) -> Tuple[List[int], List[int]]:
        """Order stream positions for one pass (paper's line 8); returns
        them with each one's pair index into `sp`.

        The latency orderings sort by current shortest-path latency with
        non-finite latencies keyed as 0.0; `np.argsort(kind="stable")`
        produces exactly the permutation a stable `sorted` over the same
        keys would.
        """
        pos = np.asarray(active, dtype=np.intp)
        flat = sp.index(src_idx[pos], dst_idx[pos])
        if ordering == "input":
            return active, flat.tolist()
        if ordering == "demand_desc":
            keys = -streams.mbps[pos]
        else:
            lat = sp.dist[flat]
            keys = np.where(np.isfinite(lat), lat, 0.0)
            if ordering == "latency_desc":
                keys = -keys
        order = np.argsort(keys, kind="stable")
        return pos[order].tolist(), flat[order].tolist()

    loss_limit, route_ids = config.loss_limit, routes.ids
    position, route = result.position, result.route
    amount, meets = result.mbps, result.meets

    def sweep(order: List[int], flat: List[int], sp: _ShortestPaths,
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

    def rebuilt(unplaced: List[int], enforce_loss: bool) -> _ShortestPaths:
        """The graph on the current residuals, from the sources of the
        streams at positions `unplaced` (the next sweep's)."""
        if _TEL.enabled:
            _TEL.counter("pathcontrol.snapshot_reuses").inc()
        return _ShortestPaths(weights, config, values,
                              np.unique(src_idx[unplaced]), enforce_loss)

    active: List[int] = np.flatnonzero(streams.mbps > 0).tolist()
    rebuilds = 0
    while active:
        # Sort by current shortest-path latency, descending (line 8).
        placed = len(position)
        blocked = sweep(*ordered(active, sp), sp, True)
        active = [p for p in blocked if remaining[p] > 1e-9]
        if not active or len(position) == placed:
            break  # all placed, or no capacity left for the rest
        if rebuilds == REBUILD_BUDGET:
            # The budget ran out with streams still unplaced (as opposed
            # to running out of capacity, above): their residual demand
            # goes to `unassigned` / the fallback pass, loudly.
            warnings.warn(
                f"path_control exhausted its rebuild budget "
                f"({REBUILD_BUDGET} rebuilds) with {len(active)} streams "
                "still unplaced; their residual demand falls through to "
                "the best-effort pass", UserWarning, stacklevel=2)
            if _TEL.enabled:
                _TEL.counter("pathcontrol.rebuild_budget_exhausted").inc(
                    len(active))
            break
        sp = rebuilt(active, True)
        rebuilds += 1

    # Best-effort fallback: streams that found no quality-feasible edge at
    # all (e.g. a global loss episode) are still carried — production
    # cannot drop conferences — on the least-bad path, flagged as
    # violating constraints.
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
    result.graph_rebuilds = rebuilds
    if _TEL.enabled:
        _TEL.counter("pathcontrol.runs").inc()
        _TEL.counter("pathcontrol.graph_rebuilds").inc(rebuilds)
        _TEL.counter("pathcontrol.assignments").inc(len(route))
        _TEL.counter("pathcontrol.unassigned").inc(unassigned.size)
        path_hops = _TEL.histogram("pathcontrol.path_hops",
                                   buckets=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        for rid in route:
            path_hops.observe(len(routes.rows[rid]) // 2)
    return result
