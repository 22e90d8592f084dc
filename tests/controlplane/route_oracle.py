"""Scalar reference implementations of the solver's two walks.

`repro.controlplane` reconstructs every pair's route per graph build as
one gather per DP layer, sums its latency and loss over whole route
tables, and runs Algorithm 2 over every placed route of one hop count
in one array pass; these are the per-route forms they replaced, kept as
the oracle the batch forms are tested against (as `packet_prober.py` is
for the burst kernel): `expand` and `path_loss_rate` for the route
table, `index_walk` (one route over flat premium matrices) and
`route_walk` (one `OverlayPath` per candidate) for Algorithm 2.
Nothing in `src/` imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.controlplane.model import OverlayPath
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import LinkStateSnapshot


def expand(vias, improved, i: int, j: int, layer: int) -> List[int]:
    """The node sequence of the best route ``i -> j`` using at most
    ``layer + 1`` hops, from `_dp_layers`' per-layer predecessors."""
    if layer == 0:
        return [i, j]
    if improved[layer - 1][i, j]:
        m = int(vias[layer - 1][i, j])
        return expand(vias, improved, i, m, layer - 1) + [j]
    return expand(vias, improved, i, j, layer - 1)


def path_loss_rate(state: LinkStateSnapshot, path: OverlayPath) -> float:
    """End-to-end loss of one path: 1 - prod(1 - hop loss) (Table 1's
    constraint), accumulated hop by hop left to right."""
    survive = 1.0
    for hop in path.hops:
        survive = survive * (1.0 - state.lookup(*hop)[1])
    return 1.0 - survive


def score(path: OverlayPath, state: LinkStateSnapshot,
          loss_ms_penalty: float = 2500.0) -> float:
    """Plan comparison metric: latency plus a loss penalty."""
    return (state.path_latency_ms(path)
            + loss_ms_penalty * path_loss_rate(state, path))


def route_walk(regions: Tuple[str, ...], state: LinkStateSnapshot,
               loss_ms_penalty: float = 2500.0
               ) -> Dict[str, Tuple[str, ...]]:
    """Algorithm 2's reverse walk for one route (region sequence),
    scoring every candidate through an all-premium `OverlayPath`.

    Returns ``rec_plan[r]`` = ordered relay sequence (excluding ``r``)
    to the destination, for every non-terminal region of the route.
    """
    dst = regions[-1]
    rec_plan: Dict[str, Tuple[str, ...]] = {}
    for i in range(len(regions) - 2, -1, -1):
        r_i = regions[i]
        best = (dst,)
        best_score = score(OverlayPath.via((r_i, dst), LinkType.PREMIUM),
                           state, loss_ms_penalty)
        for j in range(i + 1, len(regions) - 1):
            r_j = regions[j]
            candidate = (r_j,) + rec_plan[r_j]
            candidate_score = score(
                OverlayPath.via((r_i,) + candidate, LinkType.PREMIUM),
                state, loss_ms_penalty)
            if candidate_score < best_score:
                best, best_score = candidate, candidate_score
        rec_plan[r_i] = best
    return rec_plan


def index_walk(route: List[int], latency: List[float], loss: List[float],
               n: int, loss_ms_penalty: float) -> List[Tuple[int, ...]]:
    """Algorithm 2's reverse walk for one route, in index space.

    `route` is the region-id sequence; `latency` / `loss` the premium
    tier's matrices as flat lists (``a * n + b``).  Returns, for every
    non-terminal position, the ordered relay ids (excluding the region
    itself) to the destination.  A candidate's score is
    ``latency + penalty * (1 - survive)`` with both terms accumulated
    hop by hop left to right — the operations of
    `LinkStateSnapshot.path_latency_ms` and of Table 1's
    ``1 - prod(1 - hop loss)`` on the candidate's all-premium path,
    without building it.
    """
    def score(at: int, chain: Tuple[int, ...]) -> float:
        total, survive = 0.0, 1.0
        for relay in chain:
            link = at * n + relay
            total = total + latency[link]
            survive = survive * (1.0 - loss[link])
            at = relay
        return total + loss_ms_penalty * (1.0 - survive)

    last = len(route) - 1
    # The default plan is the direct premium link to the destination
    # (the only one for the region just before it); walk in reverse.
    direct = (route[last],)
    plans = [direct] * last
    for i in range(last - 2, -1, -1):
        best, best_score = direct, score(route[i], direct)
        # Try relaying through a later on-path region r_j and
        # following r_j's (already computed) plan.
        for j in range(i + 1, last):
            candidate = (route[j],) + plans[j]
            candidate_score = score(route[i], candidate)
            if candidate_score < best_score:
                best, best_score = candidate, candidate_score
        plans[i] = best
    return plans


def naive_premium_path(path: OverlayPath, from_region: str) -> OverlayPath:
    """The paper's p_naive: remaining original hops, all premium — what
    Property 1 says every reaction plan beats."""
    regions = list(path.regions)
    if from_region not in regions[:-1]:
        raise ValueError(f"{from_region} is not an on-path non-terminal region")
    idx = regions.index(from_region)
    return OverlayPath.via(regions[idx:], LinkType.PREMIUM)


def backup_path(region: str, relays: Sequence[str]) -> OverlayPath:
    """The all-premium overlay path the plan `relays` of `region`
    applies."""
    return OverlayPath.via((region,) + tuple(relays), LinkType.PREMIUM)
