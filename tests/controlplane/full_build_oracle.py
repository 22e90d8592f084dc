"""Algorithm 1's graph build as it was before rebuilds were restricted:
every source row of the min-plus DP over every region, scattered into
``src * N + dst`` tables.  Kept as the oracle the restricted
`repro.controlplane.pathcontrol._ShortestPaths` is tested against — row
by row (`test_restricted_build.py`) and, patched in for it, as the
solver that rebuilds full graphs.  Nothing in `src/` imports this
module.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import _INTERNET, _EdgeWeights


def full_dp_layers(w: np.ndarray, n_layers: int
                   ) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Hop-limited min-plus DP over all source rows, reducing each
    chunk twice (argmin, then min)."""
    n = w.shape[0]
    wT = np.ascontiguousarray(w.T)
    dist = w.copy()
    vias: List[np.ndarray] = []
    improved_layers: List[np.ndarray] = []
    chunk = min(8, max(n, 1))
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


def full_all_routes(dist: np.ndarray, vias: List[np.ndarray],
                    improved: List[np.ndarray]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair's node sequence and hop count, one gather per layer."""
    n = dist.shape[0]
    nodes = np.zeros((n, n, len(vias) + 2), dtype=np.intp)
    nodes[:, :, 0] = np.arange(n)[:, None]
    nodes[:, :, 1] = np.arange(n)[None, :]
    hops = np.ones((n, n), dtype=np.intp)
    for via, better in zip(vias, improved):
        i, j = np.nonzero(better)
        m = via[i, j]
        prefix, prefix_hops = nodes[i, m], hops[i, m]
        prefix[np.arange(i.size), prefix_hops + 1] = j
        nodes[i, j] = prefix
        hops[i, j] = prefix_hops + 1
    hops[~np.isfinite(dist)] = 0
    return nodes, hops


class FullShortestPaths:
    """Every pair's route over every region, indexed ``src * N + dst``.

    Takes `_ShortestPaths`' arguments and ignores `sources`, so
    patching it in for `_ShortestPaths` gives the solver that rebuilds
    full graphs.
    """

    def __init__(self, weights: _EdgeWeights, config: ControlConfig,
                 residuals: List[float], sources=None,
                 enforce_loss: bool = True):
        n = self.n = weights.lat.shape[1]
        left = np.array(residuals[:2 * n + n * n]) > 0.0
        region_ok = left[:n]
        usable = (weights.quality_ok if enforce_loss
                  else weights.exists).copy()
        usable[0] &= left[n:2 * n, None]
        usable[1] &= left[2 * n:].reshape(n, n)
        usable &= region_ok[None, :, None] & region_ok[None, None, :]
        weight = np.where(usable, weights.weight, np.inf)
        best_type = np.argmin(weight, axis=0)
        w = np.min(weight, axis=0)
        np.fill_diagonal(w, np.inf)

        dist, vias, improved = full_dp_layers(w, config.max_hops - 1)
        nodes, hops = full_all_routes(dist, vias, improved)
        max_hops = nodes.shape[2] - 1

        a, b = nodes[:, :, :-1], nodes[:, :, 1:]
        link_type = best_type[a, b]
        hop_latency = weights.lat[link_type, a, b]
        hop_survive = 1.0 - weights.loss[link_type, a, b]
        latency, survive = np.zeros((n, n)), np.ones((n, n))
        for h in range(max_hops):
            on_route = hops > h
            latency = np.where(on_route, latency + hop_latency[:, :, h],
                               latency)
            survive = np.where(on_route, survive * hop_survive[:, :, h],
                               survive)

        link = np.where(link_type == _INTERNET, n + a, 2 * n + a * n + b)
        self.width = 2 * max_hops + 1
        rows = np.full((n, n, self.width), -1, dtype=np.int32)
        for h in range(1, max_hops + 1):
            of_length = hops == h
            rows[of_length, :h + 1] = nodes[of_length, :h + 1]
            rows[of_length, h + 1:2 * h + 1] = link[of_length, :h]
        self.dist = dist.ravel()
        self.hops = hops.ravel()
        self.rows = rows.reshape(n * n, self.width)
        self.latency_ms = latency.ravel()
        self.loss_rate = (1.0 - survive).ravel()

    def index(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return src * self.n + dst
