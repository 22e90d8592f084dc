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
* The solve runs on arrays, from the columns of a `StreamTable`.  A
  graph build gives every pair's route at once (`_ShortestPaths`): its
  latency, loss and *resource row* (the slots of one residual vector
  it draws capacity from).  A sweep places its streams in array rounds
  (`_place`), a run interns its routes with one ``np.unique``
  (`_RouteTable`), and `Stream` / `OverlayPath` / `Assignment` objects
  exist only for consumers outside the epoch.
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


def _route_keys(rows: np.ndarray, hops: np.ndarray, n: int) -> np.ndarray:
    """The int64 key of each resource row: its region ids plus one (0
    past the destination) as digits in base ``n + 1``, then one bit per
    hop, set for a premium hop."""
    max_hops = rows.shape[1] // 2
    digit = np.arange(max_hops + 1, dtype=np.int64)
    on_route = digit <= hops[:, None]
    regions = np.where(on_route, rows[:, :max_hops + 1] + 1, 0)
    links = rows[np.arange(len(rows))[:, None],
                 np.minimum(hops[:, None] + 1 + digit[:-1], 2 * max_hops)]
    premium = (links >= 2 * n) & on_route[:, 1:]
    return (regions.astype(np.int64) @ (n + 1) ** digit << max_hops
            | premium.astype(np.int64) @ (1 << digit[:-1]))


class _RouteTable:
    """The distinct routes one epoch's solver calls placed traffic on.

    A route *is* its resource row: the region ids in path order, then
    one id per hop — ``N + a`` for an Internet hop out of region ``a``,
    ``2N + a * N + b`` for the premium link ``a -> b`` — all indices
    into the residual vector.  The table holds them as columns: `rows`
    ``(routes, width)`` int32, padded with -1, and `hops`, `latency_ms`,
    `loss_rate` and `keys` (`_route_keys`) per route.  Both runs and
    every graph rebuild share one id — and one `OverlayPath`, built the
    first time an assignment object needs it — per distinct route.
    """

    def __init__(self, codes: List[str], width: int):
        n, max_hops = len(codes), width // 2
        if (n + 1) ** (max_hops + 1) << max_hops > np.iinfo(np.int64).max:
            raise ValueError(f"route keys of {max_hops} hops over {n} "
                             "regions do not fit in 64 bits")
        self.codes = codes
        self.keys = np.zeros(0, dtype=np.int64)
        self.rows = np.zeros((0, width), dtype=np.int32)
        self.hops = np.zeros(0, dtype=np.intp)
        self.latency_ms, self.loss_rate = np.zeros(0), np.zeros(0)
        self._paths: Dict[int, OverlayPath] = {}

    def intern(self, rows: np.ndarray, hops: np.ndarray,
               latency_ms: np.ndarray, loss_rate: np.ndarray) -> np.ndarray:
        """The route id of each placement (one resource row each, in
        assignment order), with one ``np.unique``: a known route keeps
        its id, new ones are numbered in first-seen order."""
        keys = _route_keys(rows, hops, len(self.codes))
        known = self.keys.size
        __, first, inverse = np.unique(np.concatenate([self.keys, keys]),
                                       return_index=True,
                                       return_inverse=True)
        ids, new = first, np.flatnonzero(first >= known)
        new = new[np.argsort(first[new], kind="stable")]
        at = first[new] - known
        ids[new] = known + np.arange(new.size)
        for name, column in (("keys", keys), ("rows", rows.astype(np.int32)),
                             ("hops", hops), ("latency_ms", latency_ms),
                             ("loss_rate", loss_rate)):
            setattr(self, name, np.concatenate([getattr(self, name),
                                                column[at]]))
        if _TEL.enabled:
            _TEL.counter("pathcontrol.route_interns").inc()
        return ids[inverse.reshape(-1)[known:]]

    def path(self, rid: int) -> OverlayPath:
        path = self._paths.get(rid)
        if path is None:
            codes, n_hops = self.codes, int(self.hops[rid])
            row, premium_base = self.rows[rid].tolist(), 2 * len(codes)
            regions = tuple([codes[r] for r in row[:n_hops + 1]])
            hops = tuple([
                (regions[h], regions[h + 1],
                 LinkType.INTERNET if row[n_hops + 1 + h] < premium_base
                 else LinkType.PREMIUM) for h in range(n_hops)])
            path = self._paths[rid] = OverlayPath.unchecked(hops, regions)
        return path


class PathControlResult:
    """One run of Algorithm 1: parallel column arrays ``(stream
    position, route id, mbps, meets)``, one row per assignment in
    assignment order, over the input `StreamTable` and the epoch's
    `_RouteTable`; and the positions of the streams no capacity could
    carry in full, with the Mbps each has left.

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
        self.position = self.route = np.zeros(0, dtype=np.intp)
        self.mbps, self.meets = np.zeros(0), np.zeros(0, dtype=bool)
        self.unassigned_at: List[int] = []
        self.residual: List[float] = []
        #: Number of shortest-path graph rebuilds (scalability diagnostic).
        self.graph_rebuilds = 0

    def total_assigned_mbps(self) -> float:
        return float(sum(self.mbps.tolist()))

    def hop_steps(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (assignment, hop) in assignment order, hop order: the
        assignment, the hop's index and the assignment's route row."""
        rows = self.routes.rows[self.route]
        a, h = np.nonzero(np.arange(rows.shape[1] // 2)
                          < self.routes.hops[self.route][:, None])
        return a, h, rows

    @cached_property
    def usage(self) -> Tuple[List[float], List[float], Dict[int, float]]:
        """Mbps per region, Internet egress per region and premium
        usage per premium resource id (in first-use order), summed in
        assignment order (`np.bincount` adds one by one, in order)."""
        n, rows = len(self.routes.codes), self.routes.rows[self.route]
        on = rows >= 0
        slots = rows[on]
        flow = np.bincount(
            slots, weights=np.broadcast_to(self.mbps[:, None], rows.shape)[on],
            minlength=2 * n + n * n)
        premium, first = np.unique(slots[slots >= 2 * n], return_index=True)
        premium = premium[np.argsort(first)]
        return (flow[:n].tolist(), flow[n:2 * n].tolist(),
                dict(zip(premium.tolist(), flow[premium].tolist())))

    @cached_property
    def used_gateways(self) -> Dict[str, int]:
        """Gateways needed per region: ceil(traffic x headroom / B_c)."""
        config = self.config
        return dict(zip(self.routes.codes, np.ceil(
            np.array(self.usage[0]) * config.capacity_headroom
            / config.container_capacity_mbps).astype(int).tolist()))

    @cached_property
    def internet_egress(self) -> Dict[str, float]:
        return dict(zip(self.routes.codes, self.usage[1]))

    @cached_property
    def premium_usage(self) -> Dict[Tuple[str, str], float]:
        codes, n = self.routes.codes, len(self.routes.codes)
        return {(codes[(r - 2 * n) // n], codes[(r - 2 * n) % n]): mbps
                for r, mbps in self.usage[2].items()}

    @cached_property
    def forwarding_tables(self) -> Dict[str, Dict[int, Entry]]:
        """region -> stream id -> (next region, link type), written
        assignment by assignment, hop by hop (one ``dict`` per region
        over its writes in order): a split stream's later pieces
        overwrite the rows of its earlier ones.  Entries are one shared
        tuple per next hop."""
        codes, n = self.routes.codes, len(self.routes.codes)
        a, h, rows = self.hop_steps()
        here = rows[a, h]
        link = rows[a, self.routes.hops[self.route][a] + 1 + h]
        # Next region id, + N for a premium hop.
        entry = rows[a, h + 1] + np.where(link < 2 * n, 0, n)
        order = np.argsort(here, kind="stable")
        bounds = np.searchsorted(here[order], np.arange(n + 1)).tolist()
        sids = self.streams.stream_id[self.position[a[order]]].tolist()
        entries = ([(c, LinkType.INTERNET) for c in codes]
                   + [(c, LinkType.PREMIUM) for c in codes])
        values = [entries[e] for e in entry[order].tolist()]
        return {c: dict(zip(sids[bounds[r]:bounds[r + 1]],
                            values[bounds[r]:bounds[r + 1]]))
                for r, c in enumerate(codes)}

    @cached_property
    def assignments(self) -> List[Assignment]:
        """One `Assignment` per row, in assignment order."""
        streams, routes, route = self.streams.streams(), self.routes, self.route
        return [Assignment(streams[p], routes.path(rid), mbps, lat, loss,
                           meets)
                for p, rid, mbps, lat, loss, meets in zip(
                    self.position.tolist(), route.tolist(), self.mbps.tolist(),
                    routes.latency_ms[route].tolist(),
                    routes.loss_rate[route].tolist(), self.meets.tolist())]

    @cached_property
    def unassigned(self) -> List[Tuple[Stream, float]]:
        """The streams (with residual Mbps) no capacity could carry."""
        streams = self.streams.streams()
        return [(streams[p], residual)
                for p, residual in zip(self.unassigned_at, self.residual)]


def _residuals(codes: List[str], config: ControlConfig,
               gateways: Optional[Dict[str, int]]) -> np.ndarray:
    """Residual capacities at the start of one run of Algorithm 1: one
    flat vector ``[region (N) | Internet egress (N) | premium pair
    (N * N, row-major) | inf]``, uncapacitated on the region dimension
    (step 2) without `gateways`.  The trailing ``inf`` is the slot the
    -1 padding of a resource row reads."""
    n = len(codes)
    premium = np.full((n, n), float(config.premium_bandwidth_mbps))
    np.fill_diagonal(premium, 0.0)
    return np.concatenate([
        [np.inf] * n if gateways is None else
        [float(config.container_capacity_mbps * gateways.get(c, 0))
         for c in codes],
        np.full(n, float(config.internet_bandwidth_mbps)), premium.ravel(),
        [np.inf]])


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
    """Hop-limited shortest routes over the hybrid graph from the given
    `sources` that still have capacity (rows) to every region that
    still has capacity (columns and relays, in region order), as arrays
    indexed by `index`.  ``hops[k]`` is pair ``k``'s hop count (0:
    unreachable), ``rows[k]`` its resource row (see `_RouteTable`),
    ``latency_ms[k]`` / ``loss_rate[k]`` its metrics, summed hop by hop
    left to right as `LinkStateSnapshot.path_latency_ms` and Table 1's
    ``1 - prod(1 - hop loss)`` do, ``dist[k]`` its weighted length.  A
    pair outside the table indexes a trailing entry: 0 hops, length inf.
    """

    def __init__(self, weights: _EdgeWeights, config: ControlConfig,
                 residuals: np.ndarray, sources: np.ndarray,
                 enforce_loss: bool = True):
        # An edge is unusable if its own loss already violates the path
        # loss budget (unless running the best-effort fallback pass), or
        # if its link has no residual capacity; regions without capacity
        # are left out of the DP below.
        n = weights.lat.shape[1]
        left = np.asarray(residuals[:2 * n + n * n]) > 0.0
        usable = weights.quality_ok if enforce_loss else weights.exists
        internet = np.where(usable[0] & left[n:2 * n, None],
                            weights.weight[0], np.inf)
        premium = np.where(usable[1] & left[2 * n:].reshape(n, n),
                           weights.weight[1], np.inf)

        # Per-edge best link type (hybrid choice): the first minimum of
        # the two tiers, as two-operand passes (not a length-2 reduce).
        best_type = (premium < internet).astype(np.intp)
        w = np.minimum(internet, premium)
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
        # A pair's row: its regions, its hops' links, then -1.
        rows = np.full((hops.size + 1, self.width), -1, dtype=np.intp)
        pairs = rows[:-1].reshape(hops.shape + (self.width,))
        reach, step = hops[:, :, None], np.arange(max_hops + 1)
        pairs[:, :, :max_hops + 1] = np.where((step <= reach) & (reach > 0),
                                              nodes, -1)
        np.put_along_axis(pairs, reach + 1 + step[:-1],
                          np.where(step[:-1] < reach, link, -1), axis=2)
        # The source -> row map, and the trailing entry every pair
        # outside the table indexes.
        self._row = np.full(n, -1, dtype=np.intp)
        self._row[sources] = np.arange(sources.size)
        self._col, self._cols, self._outside = col, live.size, hops.size
        self.dist = np.append(dist.ravel(), np.inf)
        self.hops = np.append(hops.ravel(), 0)
        self.rows = rows
        self.latency_ms = np.append(latency.ravel(), 0.0)
        self.loss_rate = np.append(1.0 - survive.ravel(), 0.0)

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
            self.routes = _RouteTable(snap.codes, 2 * config.max_hops + 1)
        elif any(a is not b for a, b in zip(inputs, self._inputs)):
            raise ValueError("an EpochSolveContext serves one (snapshot, "
                             "config, fees); make a new one per epoch")
        return self._weights

    def first_shortest_paths(self, weights: _EdgeWeights,
                             config: ControlConfig,
                             residuals: np.ndarray) -> _ShortestPaths:
        # Internet and premium capacities start at config constants, so
        # the first usable-mask differs between runs only in which
        # regions start with positive capacity.
        key = (residuals[:weights.lat.shape[1]] > 0.0).tobytes()
        sp = self._sp_cache.get(key)
        if sp is not None:
            if _TEL.enabled:
                _TEL.counter("pathcontrol.context_sp_reuses").inc()
            return sp
        sp = self._sp_cache[key] = _ShortestPaths(
            weights, config, residuals, np.arange(weights.lat.shape[1]))
        return sp


#: Streams a placement round first scans for one a residual may cap
#: (doubling while it finds none).
PLACE_WINDOW = 256


def _place(values: np.ndarray, remaining: np.ndarray, order: np.ndarray,
           rows: np.ndarray) -> np.ndarray:
    """One sweep of Algorithm 1's greedy loop, as array passes: the
    streams at positions `order` in turn each take ``min(want, residual
    of each slot on its resource row rows[s])`` out of `values` when
    that is over 1e-9.  Updates `values` and `remaining` exactly as the
    scalar loop (`tests/controlplane/sweep_oracle.py`) would and returns
    the takes.

    A stream with no route, no want or a spent slot wants nothing.  A
    round scans on from the last one in windows of `PLACE_WINDOW`
    streams (doubling while all are clear): the residual the wants
    before a stream leave on each tight slot, in visit order, bounds the
    one it meets from below (rounding is in `margin`), so a stream clear
    of it by 1e-9 takes its whole want and spends nothing.  The round
    commits the takes before the first stream not clear with
    `np.subtract.at`, which subtracts one by one like ``values[r] -=
    take``, and gives it the scalar rule; a slot spent by then blocks
    every later stream on it, so a round ends at a cap or a spend.
    """
    want = remaining[order]
    live = want > 1e-9
    live &= rows[:, 0] >= 0
    unspent = values > 1e-9
    for column in rows.T:  # (a column at a time: reducing along a row
        live &= unspent[column]  # of a few slots is numpy's slow case)
    take = np.where(live, want, 0.0)
    if not live.any():
        return take  # nothing to place: no round
    width = rows.shape[1]
    element = np.flatnonzero((rows >= 0) & live[:, None])
    at, slot = element // width, rows.ravel()[element]
    demand = np.bincount(slot, weights=take[at], minlength=values.size)
    margin = 1e-9 + (slot.size + 2) * 2.0 ** -50 * (
        demand.sum() + np.max(values, where=np.isfinite(values),
                              initial=0.0))
    is_tight = values < demand + margin
    # Each stream's elements are ``slot[ends[s]:ends[s + 1]]``; a tight
    # slot's rank sorts in the narrowest dtype (a radix sort while there
    # are fewer than 2 ** 16 tight slots).
    ends = np.searchsorted(at, np.arange(len(order) + 1))
    tight, rank = is_tight[slot], np.cumsum(is_tight) - 1
    rank = rank.astype(np.min_scalar_type(rank[-1]))
    rounds, done, start, span = 1, 0, 0, PLACE_WINDOW
    while start < len(order):
        # The tight elements of the next `span` streams by slot, then
        # visit; a slot spent before them blocks them.
        stop = min(start + span, len(order))
        window = ends[start] + np.flatnonzero(tight[ends[start]:ends[stop]])
        window = window[np.argsort(rank[slot[window]], kind="stable")]
        by_slot, on_slot = slot[window], at[window]
        have = values[by_slot]
        take[on_slot[have <= 1e-9]] = 0.0
        # Each one's running sum of the wants before it on its slot.
        wants = take[on_slot]
        before = np.cumsum(wants) - wants
        before -= before[np.searchsorted(by_slot, by_slot)]
        short = on_slot[(have - before < wants + margin) & (wants > 0.0)]
        f = int(short.min()) if short.size else stop
        np.subtract.at(values, slot[done:ends[f]], take[at[done:ends[f]]])
        if not short.size:
            done, start, span = ends[stop], stop, 2 * span
            continue
        row = slot[ends[f]:ends[f + 1]]
        have = values[row]
        take[f] = got = min(want[f], have.min())
        values[row] = have - got
        rounds, done, start = rounds + 1, ends[f + 1], f + 1
        span = max(span // 2, PLACE_WINDOW)
    placed = take > 0.0
    remaining[order[placed]] = want[placed] - take[placed]
    if _TEL.enabled:
        _TEL.counter("pathcontrol.place_rounds").inc(rounds)
    return take


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
    remaining = streams.mbps.copy()

    # Latency limits are anchored to the direct premium latency of each
    # pair (the best the underlay can do).  Vectorised, but element-wise
    # identical to `config.latency_limit_ms` per stream.
    lat_premium = snap.lat[TYPE_INDEX[LinkType.PREMIUM]]
    limits = np.maximum(
        config.latency_limit_floor_ms,
        config.latency_limit_stretch * lat_premium[src_idx, dst_idx])

    def ordered(active: np.ndarray, sp: _ShortestPaths
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Stream positions in one pass's order (paper's line 8), with
        each one's pair index into `sp`; the latency orderings key a
        non-finite latency as 0.0, and every sort is stable."""
        flat = sp.index(src_idx[active], dst_idx[active])
        if ordering == "input":
            return active, flat
        if ordering == "demand_desc":
            keys = -streams.mbps[active]
        else:
            lat = sp.dist[flat]
            keys = np.where(np.isfinite(lat), lat, 0.0)
            if ordering == "latency_desc":
                keys = -keys
        order = np.argsort(keys, kind="stable")
        return active[order], flat[order]

    # Per sweep: the placements' (position, mbps, meets, resource row,
    # hops, latency, loss), in assignment order.
    placements = [(np.zeros(0, dtype=np.intp), np.zeros(0),
                   np.zeros(0, dtype=bool), sp.rows[:0], sp.hops[:0],
                   np.zeros(0), np.zeros(0))]

    def sweep(order: np.ndarray, flat: np.ndarray, sp: _ShortestPaths,
              quality: bool) -> Tuple[np.ndarray, int]:
        """Place the streams at positions `order` (pair indices `flat`
        into `sp`) once each (`_place`); returns, in visit order, those
        with demand left, and how many were placed.  The best-effort
        pass (`quality` False) never meets the constraints."""
        take = _place(values, remaining, order, sp.rows[flat])
        placed = take > 0.0
        at, k = order[placed], flat[placed]
        latency_ms, loss_rate = sp.latency_ms[k], sp.loss_rate[k]
        placements.append((
            at, take[placed],
            (latency_ms <= limits[at]) & (loss_rate <= config.loss_limit)
            & quality, sp.rows[k], sp.hops[k], latency_ms, loss_rate))
        return order[remaining[order] > 1e-9], at.size

    def rebuilt(unplaced: np.ndarray, enforce_loss: bool) -> _ShortestPaths:
        """The graph on the current residuals, from the sources of the
        streams at positions `unplaced` (the next sweep's)."""
        if _TEL.enabled:
            _TEL.counter("pathcontrol.snapshot_reuses").inc()
        return _ShortestPaths(weights, config, values,
                              np.unique(src_idx[unplaced]), enforce_loss)

    active = np.flatnonzero(streams.mbps > 0)
    rebuilds = 0
    while active.size:
        # Sort by current shortest-path latency, descending (line 8).
        active, placed = sweep(*ordered(active, sp), sp, True)
        if not active.size or not placed:
            break  # all placed, or no capacity left for the rest
        if rebuilds == REBUILD_BUDGET:
            # The budget ran out with streams still unplaced (as opposed
            # to running out of capacity, above): their residual demand
            # goes to `unassigned` / the fallback pass, loudly.
            warnings.warn(
                f"path_control exhausted its rebuild budget "
                f"({REBUILD_BUDGET} rebuilds) with {active.size} streams "
                "still unplaced; their residual demand falls through to "
                "the best-effort pass", UserWarning, stacklevel=2)
            if _TEL.enabled:
                _TEL.counter("pathcontrol.rebuild_budget_exhausted").inc(
                    active.size)
            break
        sp = rebuilt(active, True)
        rebuilds += 1

    # Best-effort fallback: streams that found no quality-feasible edge at
    # all (e.g. a global loss episode) are still carried — production
    # cannot drop conferences — on the least-bad path, flagged as
    # violating constraints.
    leftover = np.flatnonzero(remaining > 1e-9)
    if leftover.size:
        sp = rebuilt(leftover, False)
        sweep(leftover, sp.index(src_idx[leftover], dst_idx[leftover]), sp,
              False)

    (result.position, result.mbps, result.meets, rows, hops, latency_ms,
     loss_rate) = (np.concatenate(column) for column in zip(*placements))
    result.route = routes.intern(rows, hops, latency_ms, loss_rate)
    unassigned = np.flatnonzero(remaining > 1e-9)
    result.unassigned_at = unassigned.tolist()
    result.residual = remaining[unassigned].tolist()
    result.graph_rebuilds = rebuilds
    if _TEL.enabled:
        _TEL.counter("pathcontrol.runs").inc()
        _TEL.counter("pathcontrol.graph_rebuilds").inc(rebuilds)
        _TEL.counter("pathcontrol.assignments").inc(result.route.size)
        _TEL.counter("pathcontrol.unassigned").inc(unassigned.size)
        path_hops = _TEL.histogram("pathcontrol.path_hops",
                                   buckets=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        for n_hops in hops.tolist():
            path_hops.observe(n_hops)
    return result
