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
* Link state arrives as one `LinkStateSnapshot` per call (a scalar
  `LinkStateFn` is adapted into one, evaluated exactly once).  The
  latency/loss/fee matrices and the capacity-independent edge weights
  are shared by **every** graph rebuild within the call — only the
  residual-capacity masks change between rebuilds — and all per-path
  metrics are matrix reads instead of callback chains.
* An `EpochSolveContext` can be threaded through the capacitated run
  and capacity control's uncapacitated run to share the edge-weight
  build, the first DP build, and per-path index/metric caches between
  them.  All context caching is value-transparent: output is
  bit-identical with and without one.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.controlplane.model import (ControlConfig, LinkState, OverlayPath,
                                      PathHop)
from repro.obs import telemetry as _telemetry
from repro.traffic.streams import Stream
from repro.underlay.linkstate import LinkType
from repro.underlay.pricing import PricingModel
from repro.underlay.snapshot import TYPE_INDEX, TYPE_ORDER, LinkStateSnapshot

_TEL = _telemetry()

_TYPES = TYPE_ORDER

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
    for ti, t in enumerate(_TYPES):
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


@dataclass
class PathControlResult:
    """Everything Algorithm 1 outputs for one epoch."""

    assignments: List[Assignment]
    #: Streams (with residual Mbps) that no capacity could carry.
    unassigned: List[Tuple[Stream, float]]
    #: Traffic processed per region (every region a path touches).
    region_traffic: Dict[str, float]
    #: Internet egress per region and premium usage per pair (Mbps).
    internet_egress: Dict[str, float]
    premium_usage: Dict[Tuple[str, str], float]
    #: Gateways needed per region: ceil(traffic x headroom / B_c).
    used_gateways: Dict[str, int]
    #: Forwarding tables: region -> stream_id -> (next region, link type).
    forwarding_tables: Dict[str, Dict[int, Tuple[str, LinkType]]]
    #: Number of shortest-path graph rebuilds (scalability diagnostic).
    graph_rebuilds: int = 0

    #: Lazy stream_id -> [Assignment] index behind `assignment_for`.
    _stream_index: Optional[Dict[int, List[Assignment]]] = field(
        default=None, init=False, repr=False, compare=False)

    def assignment_for(self, stream_id: int) -> List[Assignment]:
        index = self._stream_index
        if index is None:
            index = {}
            for a in self.assignments:
                index.setdefault(a.stream.stream_id, []).append(a)
            self._stream_index = index
        return index.get(stream_id, [])

    def total_assigned_mbps(self) -> float:
        return float(sum(a.mbps for a in self.assignments))

    def average_relay_hops(self) -> float:
        """Demand-weighted mean overlay hop count (Fig. 17a)."""
        if not self.assignments:
            return 0.0
        weights = np.array([a.mbps for a in self.assignments])
        hops = np.array([len(a.path.hops) for a in self.assignments])
        if weights.sum() == 0:
            return float(hops.mean())
        return float(np.average(hops, weights=weights))


class _PathData:
    """Pre-resolved index tuples for one path (capacity hot loop).

    At planetary scale the same few thousand paths are checked hundreds
    of thousands of times per epoch, so region codes are resolved to
    integer indices once per distinct path and cached on the
    `EpochSolveContext`; `_Capacities.path_capacity_data` /
    `consume_data` then touch arrays only.
    """

    __slots__ = ("region_idx", "internet_idx", "premium_idx")

    def __init__(self, path: OverlayPath, index: Dict[str, int]):
        self.region_idx = tuple(index[r] for r in path.regions)
        internet: List[int] = []
        premium: List[Tuple[int, int]] = []
        for (a, b, t) in path.hops:
            if t is LinkType.INTERNET:
                internet.append(index[a])
            else:
                premium.append((index[a], index[b]))
        self.internet_idx = tuple(internet)
        self.premium_idx = tuple(premium)


class _Capacities:
    """Residual capacities during one run of Algorithm 1."""

    def __init__(self, codes: List[str], config: ControlConfig,
                 gateways: Optional[Dict[str, int]]):
        n = len(codes)
        self.codes = codes
        self.index = {c: i for i, c in enumerate(codes)}
        if gateways is None:
            # Step 2 runs uncapacitated on the region dimension.
            self.region = np.full(n, np.inf)
        else:
            self.region = np.array([
                config.container_capacity_mbps * gateways.get(c, 0)
                for c in codes], dtype=float)
        self.internet = np.full(n, config.internet_bandwidth_mbps, dtype=float)
        self.premium = np.full((n, n), config.premium_bandwidth_mbps,
                               dtype=float)
        np.fill_diagonal(self.premium, 0.0)
        #: Which regions start with positive capacity — the part of the
        #: first usable-mask that differs between capacitated and
        #: uncapacitated runs (Internet/premium starts are config
        #: constants).  Keys the context's first-build DP cache.
        self.initial_region_signature = (self.region > 0.0).tobytes()

    def path_capacity_data(self, pd: _PathData) -> float:
        """The tightest residual (region, Internet egress, premium
        link) along the path."""
        cap = float("inf")
        region = self.region
        for i in pd.region_idx:
            v = region[i]
            if v < cap:
                cap = v
        internet = self.internet
        for i in pd.internet_idx:
            v = internet[i]
            if v < cap:
                cap = v
        premium = self.premium
        for ij in pd.premium_idx:
            v = premium[ij]
            if v < cap:
                cap = v
        return float(cap)

    def consume_data(self, pd: _PathData, mbps: float) -> None:
        """Take `mbps` from every residual the path draws on."""
        region = self.region
        for i in pd.region_idx:
            region[i] -= mbps
        internet = self.internet
        for i in pd.internet_idx:
            internet[i] -= mbps
        premium = self.premium
        for ij in pd.premium_idx:
            premium[ij] -= mbps


class _EdgeWeights:
    """Capacity-independent edge data, shared by all graph rebuilds.

    Built once per `path_control` call (or once per epoch via an
    `EpochSolveContext`) from the epoch's snapshot: the weighted edge
    cost (latency + loss penalty + fee penalty) and the quality masks.
    A rebuild only re-applies the residual-capacity masks on top.
    """

    def __init__(self, snap: LinkStateSnapshot, config: ControlConfig,
                 fees: Optional[PricingModel]):
        self.snap = snap
        self.lat = snap.lat
        self.loss = snap.loss
        self.fee = _fee_matrix(snap.codes, fees)
        self.weight = (self.lat + config.loss_ms_penalty * self.loss
                       + config.cost_ms_per_fee * self.fee)
        # An edge is quality-usable if its own loss does not already
        # violate the path loss budget; the best-effort fallback pass
        # only requires the link to exist (finite latency).
        self.quality_ok = self.loss <= config.loss_limit
        self.exists = np.isfinite(self.lat)


#: Row-chunk size for the DP inner buffer (fits L2 at N<=500).
_DP_ROW_CHUNK = 8

def _dp_layers(w: np.ndarray, n_layers: int
               ) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Hop-limited min-plus DP over all source rows.

    Returns (dist, vias, improved) with per-layer via/improved matrices.
    The add is laid out as ``stacked[i, j, m] = dist[i, m] + wT[j, m]``
    over the C-contiguous transpose so the argmin reduces over the
    contiguous last axis — the same IEEE adds and the same first-minimum
    tie-breaking as the (i, m, j) layout.  Rows are processed through a
    small reused buffer instead of materialising the (N, N, N) cube:
    identical element-wise operations, but ~3x faster at N=200 (the
    cube's fresh 64 MB allocation per layer is pure page-fault
    overhead).
    """
    n = w.shape[0]
    wT = np.ascontiguousarray(w.T)
    dist = w.copy()
    vias: List[np.ndarray] = []
    improved_layers: List[np.ndarray] = []
    chunk = min(_DP_ROW_CHUNK, max(n, 1))
    buf = np.empty((chunk, n, n))
    for __ in range(n_layers):
        best_m = np.empty((n, n), dtype=np.int64)
        best_val = np.empty((n, n))
        for c0 in range(0, n, chunk):
            c1 = min(c0 + chunk, n)
            b = buf[:c1 - c0]
            np.add(dist[c0:c1, None, :], wT[None, :, :], out=b)
            np.argmin(b, axis=2, out=best_m[c0:c1])
            np.min(b, axis=2, out=best_val[c0:c1])
        improved = best_val < dist - 1e-12
        vias.append(best_m)
        improved_layers.append(improved)
        dist = np.where(improved, best_val, dist)
    return dist, vias, improved_layers


class _ShortestPaths:
    """Hop-limited all-pairs shortest paths over the hybrid graph."""

    def __init__(self, weights: _EdgeWeights, config: ControlConfig,
                 caps: _Capacities, enforce_loss: bool = True,
                 first_build: bool = True):
        self.codes = weights.snap.codes
        self.index = caps.index
        if not first_build and _TEL.enabled:
            _TEL.counter("pathcontrol.snapshot_reuses").inc()

        # An edge is unusable if its own loss already violates the path
        # loss budget (unless running the best-effort fallback pass), or
        # if it has no residual capacity.
        usable = (weights.quality_ok if enforce_loss
                  else weights.exists).copy()
        usable[0] &= caps.internet[:, None] > 0.0
        usable[1] &= caps.premium > 0.0
        region_ok = caps.region > 0.0
        usable &= region_ok[None, :, None] & region_ok[None, None, :]
        weight = np.where(usable, weights.weight, np.inf)

        # Per-edge best link type (hybrid choice).
        self.best_type = np.argmin(weight, axis=0)
        w = np.min(weight, axis=0)
        np.fill_diagonal(w, np.inf)

        # Min-plus DP: layer k holds the best distance using <= k+1 hops.
        # Per-layer predecessors make reconstruction respect the hop
        # limit exactly (a single merged predecessor matrix could splice
        # a longer prefix in and overshoot it).
        dist, vias, improved = _dp_layers(w, config.max_hops - 1)
        self._vias = vias
        self._improved = improved
        self.w = w
        self.dist = dist
        #: Reconstructed paths memoised per (src, dst) — the DP state is
        #: immutable within one pass, so reconstruction is too.
        self._path_cache: Dict[Tuple[int, int], Optional[OverlayPath]] = {}

    def path(self, src: str, dst: str) -> Optional[OverlayPath]:
        """Reconstruct the best path, or None if unreachable."""
        return self.path_idx(self.index[src], self.index[dst])

    def path_idx(self, i: int, j: int) -> Optional[OverlayPath]:
        """`path` by region index (the hot loop already has indices)."""
        key = (i, j)
        cached = self._path_cache.get(key, False)
        if cached is not False:
            return cached
        if not np.isfinite(self.dist[i, j]):
            self._path_cache[key] = None
            return None
        nodes = self._expand(i, j, len(self._vias))
        hops = []
        for a, b in zip(nodes[:-1], nodes[1:]):
            t = _TYPES[int(self.best_type[a, b])]
            hops.append((self.codes[a], self.codes[b], t))
        path = OverlayPath.unchecked(tuple(hops))
        self._path_cache[key] = path
        return path

    def latency(self, src: str, dst: str) -> float:
        return float(self.dist[self.index[src], self.index[dst]])

    def _expand(self, i: int, j: int, layer: int) -> List[int]:
        if layer == 0:
            return [i, j]
        if self._improved[layer - 1][i, j]:
            m = int(self._vias[layer - 1][i, j])
            return self._expand(i, m, layer - 1) + [j]
        return self._expand(i, j, layer - 1)


class EpochSolveContext:
    """Shared solver state for one control epoch.

    One context threads through Algorithm 1's capacitated run and
    capacity control's uncapacitated run so they can share work that
    depends only on the epoch snapshot:

    * the `_EdgeWeights` build (identical for both runs),
    * the first `_ShortestPaths` build, keyed by which regions start
      with positive capacity — the uncapacitated run's first graph
      equals the capacitated one whenever every region has a gateway,
      which saves an entire DP per epoch,
    * per-path index tuples (`_PathData`) and per-path snapshot metrics,
      which repeat heavily across rebuilds and runs.

    All caching is value-transparent — results are bit-identical with
    and without a context.  A context serves exactly one (snapshot,
    config, fees) triple: the next epoch makes a new one.
    """

    def __init__(self):
        self._weights: Optional[_EdgeWeights] = None
        self._inputs: Optional[Tuple] = None
        self._index: Optional[Dict[str, int]] = None
        self._sp_cache: Dict[Tuple, _ShortestPaths] = {}
        self._path_data: Dict[Tuple[PathHop, ...], _PathData] = {}
        self._path_metrics: Dict[Tuple[PathHop, ...],
                                 Tuple[float, float]] = {}

    def weights(self, snap: LinkStateSnapshot, config: ControlConfig,
                fees: Optional[PricingModel]) -> _EdgeWeights:
        inputs = (snap, config, fees)
        if self._weights is None:
            self._inputs = inputs
            self._weights = _EdgeWeights(snap, config, fees)
            self._index = snap.index
        elif any(a is not b for a, b in zip(inputs, self._inputs)):
            raise ValueError("an EpochSolveContext serves one (snapshot, "
                             "config, fees); make a new one per epoch")
        return self._weights

    def first_shortest_paths(self, weights: _EdgeWeights,
                             config: ControlConfig, caps: _Capacities,
                             enforce_loss: bool) -> _ShortestPaths:
        key = (enforce_loss, caps.initial_region_signature)
        sp = self._sp_cache.get(key)
        if sp is not None:
            if _TEL.enabled:
                _TEL.counter("pathcontrol.context_sp_reuses").inc()
            return sp
        sp = _ShortestPaths(weights, config, caps,
                            enforce_loss=enforce_loss)
        self._sp_cache[key] = sp
        return sp

    def data_for(self, path: OverlayPath) -> _PathData:
        pd = self._path_data.get(path.hops)
        if pd is None:
            pd = _PathData(path, self._index)
            self._path_data[path.hops] = pd
        return pd

    def metrics_for(self, path: OverlayPath) -> Tuple[float, float]:
        """(latency_ms, loss_rate) for `path` on the epoch snapshot."""
        cached = self._path_metrics.get(path.hops)
        if cached is None:
            snap = self._weights.snap
            cached = (snap.path_latency_ms(path), snap.path_loss_rate(path))
            self._path_metrics[path.hops] = cached
        return cached


#: Stream orderings path_control supports; "latency_desc" is the paper's.
ORDERINGS = ("latency_desc", "latency_asc", "demand_desc", "input")


def path_control(streams: List[Stream], codes: List[str], state: LinkState,
                 config: ControlConfig,
                 gateways: Optional[Dict[str, int]] = None,
                 fees: Optional[PricingModel] = None,
                 max_rebuilds: int = 40,
                 ordering: str = "latency_desc",
                 context: Optional[EpochSolveContext] = None
                 ) -> PathControlResult:
    """Run Algorithm 1.

    `state` is either a `LinkStateSnapshot` (the controller's per-epoch
    matrix snapshot — preferred) or a scalar `LinkStateFn`, which is
    evaluated into a snapshot exactly once.  `gateways` gives the
    current per-region container counts; pass None to run uncapacitated
    on the region dimension (used by capacity control's second step).
    `fees` enables the cost term in edge weights.  `ordering` selects
    the per-pass stream order — the paper's latency-descending heuristic
    by default; the alternatives exist for the ordering ablation.
    `context` shares per-epoch solver state across the epoch's solver
    calls, which must then pass the same snapshot, config and fees
    objects; results are identical without one.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}; choose from "
                         f"{ORDERINGS}")
    codes = list(codes)
    snap = LinkStateSnapshot.ensure(state, codes)
    ctx = context if context is not None else EpochSolveContext()
    weights = ctx.weights(snap, config, fees)
    caps = _Capacities(codes, config, gateways)
    sp = ctx.first_shortest_paths(weights, config, caps, True)
    rebuilds = 0

    remaining: Dict[int, float] = {s.stream_id: s.demand_mbps for s in streams}
    by_id: Dict[int, Stream] = {s.stream_id: s for s in streams}
    assignments: List[Assignment] = []

    n_streams = len(streams)
    index = snap.index
    src_idx = np.fromiter((index[s.src] for s in streams), dtype=np.intp,
                          count=n_streams)
    dst_idx = np.fromiter((index[s.dst] for s in streams), dtype=np.intp,
                          count=n_streams)
    src_pos = src_idx.tolist()
    dst_pos = dst_idx.tolist()

    # Latency limits are anchored to the direct premium latency of each
    # pair (the best the underlay can do).  Vectorised, but element-wise
    # identical to `config.latency_limit_ms` per stream.
    lat_premium = snap.lat[TYPE_INDEX[LinkType.PREMIUM]]
    limits_arr = np.maximum(config.latency_limit_floor_ms,
                            config.latency_limit_stretch
                            * lat_premium[src_idx, dst_idx])
    limits: Dict[int, float] = dict(
        zip((s.stream_id for s in streams), limits_arr.tolist()))

    def ordered(active_pos: List[int]) -> List[int]:
        """Order stream positions for one pass (paper's line 8).

        The latency orderings sort by current shortest-path latency with
        non-finite latencies keyed as 0.0; `np.argsort(kind="stable")`
        produces exactly the permutation a stable `sorted` over the same
        keys would.
        """
        if ordering == "input":
            return active_pos
        if ordering == "demand_desc":
            return sorted(active_pos,
                          key=lambda p: -streams[p].demand_mbps)
        pos = np.asarray(active_pos, dtype=np.intp)
        lat = sp.dist[src_idx[pos], dst_idx[pos]]
        keys = np.where(np.isfinite(lat), lat, 0.0)
        if ordering == "latency_desc":
            keys = -keys
        order = np.argsort(keys, kind="stable")
        return [active_pos[k] for k in order.tolist()]

    active = [p for p, s in enumerate(streams) if s.demand_mbps > 0]
    # Per-build cache of (path, path data, latency, loss) by region-pair
    # index: one integer-tuple lookup per stream instead of separate
    # path/index/metric lookups (hops-tuple hashing is the expensive
    # one).  Rebuilt whenever the graph is.
    pair_cache: Dict[Tuple[int, int], Optional[Tuple]] = {}
    while active and rebuilds <= max_rebuilds:
        # Sort by current shortest-path latency, descending (line 8).
        order = ordered(active)
        blocked: List[int] = []
        assigned_any = False
        for p in order:
            s = streams[p]
            sid = s.stream_id
            want = remaining[sid]
            if want <= 0:
                continue
            key = (src_pos[p], dst_pos[p])
            entry = pair_cache.get(key, False)
            if entry is False:
                path = sp.path_idx(key[0], key[1])
                if path is None:
                    entry = None
                else:
                    lat, loss = ctx.metrics_for(path)
                    entry = (path, ctx.data_for(path), lat, loss)
                pair_cache[key] = entry
            if entry is None:
                blocked.append(p)
                continue
            path, pd, lat, loss = entry
            cap = caps.path_capacity_data(pd)
            take = min(want, cap)
            if take <= 1e-9:
                blocked.append(p)
                continue
            meets = (lat <= limits[sid]
                     and loss <= config.loss_limit)
            caps.consume_data(pd, take)
            remaining[sid] = want - take
            assignments.append(Assignment(s, path, float(take), lat, loss,
                                          meets))
            assigned_any = True
            if remaining[sid] > 1e-9:
                blocked.append(p)  # leftover demand needs another path
        active = [p for p in blocked
                  if remaining[streams[p].stream_id] > 1e-9]
        if not active:
            break
        if not assigned_any:
            break  # no capacity anywhere; give up on the rest
        sp = _ShortestPaths(weights, config, caps, first_build=False)
        pair_cache = {}
        rebuilds += 1

    if active and rebuilds > max_rebuilds:
        # The budget ran out with streams still unplaced (as opposed to
        # running out of capacity, which breaks the loop above).  They
        # silently fell through to `unassigned`/the fallback pass before
        # this was surfaced.
        warnings.warn(
            f"path_control exhausted its rebuild budget "
            f"(max_rebuilds={max_rebuilds}) with {len(active)} streams "
            "still unplaced; their residual demand falls through to the "
            "best-effort pass", UserWarning, stacklevel=2)
        if _TEL.enabled:
            _TEL.counter("pathcontrol.rebuild_budget_exhausted").inc(
                len(active))

    # Best-effort fallback: streams that found no quality-feasible edge at
    # all (e.g. a global loss episode) are still carried — production
    # cannot drop conferences — on the least-bad path, flagged as
    # violating constraints.
    leftover_pos = [p for p, s in enumerate(streams)
                    if remaining[s.stream_id] > 1e-9]
    if leftover_pos:
        sp = _ShortestPaths(weights, config, caps, enforce_loss=False,
                            first_build=False)
        pair_cache = {}
        for p in leftover_pos:
            s = streams[p]
            sid = s.stream_id
            want = remaining[sid]
            key = (src_pos[p], dst_pos[p])
            entry = pair_cache.get(key, False)
            if entry is False:
                path = sp.path_idx(key[0], key[1])
                if path is None:
                    entry = None
                else:
                    lat, loss = ctx.metrics_for(path)
                    entry = (path, ctx.data_for(path), lat, loss)
                pair_cache[key] = entry
            if entry is None:
                continue
            path, pd, lat, loss = entry
            take = min(want, caps.path_capacity_data(pd))
            if take <= 1e-9:
                continue
            caps.consume_data(pd, take)
            remaining[sid] = want - take
            assignments.append(Assignment(s, path, float(take), lat, loss,
                                          False))

    unassigned = [(by_id[sid], res) for sid, res in remaining.items()
                  if res > 1e-9]

    result = _summarise(assignments, unassigned, codes, config, rebuilds)
    if _TEL.enabled:
        _TEL.counter("pathcontrol.runs").inc()
        _TEL.counter("pathcontrol.graph_rebuilds").inc(rebuilds)
        _TEL.counter("pathcontrol.assignments").inc(len(result.assignments))
        _TEL.counter("pathcontrol.unassigned").inc(len(result.unassigned))
        hops = _TEL.histogram("pathcontrol.path_hops",
                              buckets=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        for a in result.assignments:
            hops.observe(len(a.path.hops))
    return result


def _summarise(assignments: List[Assignment],
               unassigned: List[Tuple[Stream, float]], codes: List[str],
               config: ControlConfig, rebuilds: int) -> PathControlResult:
    region_traffic: Dict[str, float] = {c: 0.0 for c in codes}
    internet_egress: Dict[str, float] = {c: 0.0 for c in codes}
    premium_usage: Dict[Tuple[str, str], float] = {}
    tables: Dict[str, Dict[int, Tuple[str, LinkType]]] = {c: {} for c in codes}

    for a in assignments:
        for region in a.path.regions:
            region_traffic[region] += a.mbps
        for (i, j, t) in a.path.hops:
            if t is LinkType.INTERNET:
                internet_egress[i] += a.mbps
            else:
                premium_usage[(i, j)] = premium_usage.get((i, j), 0.0) + a.mbps
            tables[i][a.stream.stream_id] = (j, t)

    used = {c: int(np.ceil(region_traffic[c] * config.capacity_headroom
                           / config.container_capacity_mbps))
            for c in codes}
    return PathControlResult(assignments, unassigned, region_traffic,
                             internet_egress, premium_usage, used, tables,
                             rebuilds)
