"""Algorithm 2: reaction-plan generation (§5.4).

For every stream's forwarding path and every region along it, the
controller pre-computes a *backup path* made of premium links that the
gateway applies locally when it detects a degradation of its outgoing
link — without contacting the controller.

The paper's algorithm walks the path's regions in reverse.  For region
r_i the default plan is the direct premium link to the destination r_d;
it then checks whether routing through a *later* region r_j (premium) and
continuing with r_j's plan is better, and keeps the best.  Two properties
follow (and are asserted in our tests):

* Property 1 — the backup path is always at least as good as replacing
  every remaining Internet hop of the original path with premium links
  (hence better than the original path during a degradation).
* Property 2 — the backup path only uses regions already on the original
  path, so region capacity and premium bandwidth budgets reserved for the
  path still cover it: all constraints remain satisfied.

Plans depend only on a route's region sequence, so the walk runs over
the distinct placed routes, all routes of one hop count in one array
pass (`_relay_choices`), and the plans come out as the per-region dicts
the installs push.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.controlplane import model
from repro.controlplane.pathcontrol import PathControlResult
from repro.obs import telemetry as _telemetry
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_INDEX, LinkStateSnapshot

_TEL = _telemetry()

#: Reaction plans as installed: region -> stream id -> relay chain.
RegionPlans = Dict[str, Dict[int, Tuple[str, ...]]]


@dataclass(frozen=True)
class ReactionPlan:
    """Backup next-hops for one (stream, region): premium links only.

    `relay_regions` is the ordered region sequence from (but excluding)
    the reacting region to the destination; every link is premium.
    """

    stream_id: int
    region: str
    relay_regions: Tuple[str, ...]


def _relay_choices(nodes: np.ndarray, latency: np.ndarray, loss: np.ndarray,
                   n: int, loss_ms_penalty: float) -> np.ndarray:
    """Algorithm 2's reverse walk over every route of one hop count.

    `nodes` is ``(routes, hops + 1)``: each route's region ids;
    `latency` / `loss` the premium tier's matrices, flat (``a * n +
    b``).  Returns ``via`` ``(routes, hops)``: the plan of position ``i``
    of route ``k`` relays through position ``j = via[k, i]`` and then
    follows ``j``'s plan, or goes direct to the destination when ``j``
    is -1.

    A candidate's score is ``latency + penalty * (1 - survive)``, both
    terms accumulated hop by hop left to right from ``0.0`` / ``1.0`` —
    the operations of `LinkStateSnapshot.path_latency_ms` and of Table
    1's ``1 - prod(1 - hop loss)`` on its all-premium path — and a later
    candidate replaces the best only when strictly better, so the first
    minimum wins.
    """
    count, hops = nodes.shape[0], nodes.shape[1] - 1
    every = np.arange(count)

    def score(at: np.ndarray, chain: np.ndarray,
              length: np.ndarray) -> np.ndarray:
        total, survive = np.zeros(count), np.ones(count)
        for s in range(chain.shape[1]):
            on = s < length
            link = at * n + chain[:, s]
            total = np.where(on, total + latency[link], total)
            survive = np.where(on, survive * (1.0 - loss[link]), survive)
            at = np.where(on, chain[:, s], at)
        return total + loss_ms_penalty * (1.0 - survive)

    # Each position's relay ids as a padded row (`lengths` long).  The
    # default plan is the direct premium link to the destination (the
    # only one for the region just before it); walk in reverse.
    chains = np.zeros((count, hops, hops), dtype=np.intp)
    chains[:, :, 0] = nodes[:, hops, None]
    lengths = np.ones((count, hops), dtype=np.intp)
    via = np.full((count, hops), -1)
    for i in range(hops - 2, -1, -1):
        at = nodes[:, i]
        best = score(at, chains[:, i], lengths[:, i])
        # Try relaying through a later on-path region r_j and following
        # r_j's (already computed) plan.
        for j in range(i + 1, hops):
            candidate = np.concatenate([nodes[:, j, None], chains[:, j]],
                                       axis=1)
            candidate_score = score(at, candidate, 1 + lengths[:, j])
            better = candidate_score < best
            best = np.where(better, candidate_score, best)
            via[:, i] = np.where(better, j, via[:, i])
        relayed = via[:, i] >= 0
        j = np.maximum(via[:, i], 0)
        chains[relayed, i, 0] = nodes[every, j][relayed]
        chains[relayed, i, 1:] = chains[every, j, :hops - 1][relayed]
        lengths[:, i] = np.where(relayed, 1 + lengths[every, j], 1)
    return via


def generate_reaction_plans(result: PathControlResult,
                            snap: LinkStateSnapshot) -> RegionPlans:
    """Run Algorithm 2 over every assignment of a path-control result.

    Returns the plans per region of the result, each a dict stream id
    -> relay chain; the destination region needs no plan.  A stream
    split over several assignments keeps, per region, the plan of the
    first assignment through it.  The reverse walk runs once per
    distinct placed route, over the premium tier of `snap`.
    """
    routes, route = result.routes, result.route
    codes, spans, n = routes.codes, routes.hops, len(routes.codes)
    premium = TYPE_INDEX[LinkType.PREMIUM]
    latency, loss = snap.lat[premium].ravel(), snap.loss[premium].ravel()
    placed = np.unique(route)
    # The id in `names` of the relay chain of each placed route's
    # non-terminal positions.  A chain is interned as (first relay, id
    # of the rest), the rest of a lone ``(dst,)`` being the empty chain.
    chain_ids = np.zeros((spans.size, routes.rows.shape[1] // 2), np.intp)
    names: List[Tuple[str, ...]] = []
    interned: Dict[int, int] = {}
    for hops in np.unique(spans[placed]).tolist():
        rids = placed[spans[placed] == hops]
        nodes = routes.rows[rids, :hops + 1].astype(np.intp)
        via = _relay_choices(nodes, latency, loss, n,
                             model.LOSS_MS_PENALTY)
        every = np.arange(rids.size)
        ids = np.empty(via.shape, dtype=np.intp)
        for i in range(hops - 1, -1, -1):
            j = via[:, i]
            first = np.where(j < 0, nodes[:, hops], nodes[every, j])
            rest = np.where(j < 0, -1, ids[every, j])
            keys, inverse = np.unique((rest + 1) * n + first,
                                      return_inverse=True)
            known = []
            for key in keys.tolist():
                chain_id = interned.get(key)
                if chain_id is None:
                    rest_id, relay = divmod(key, n)
                    chain_id = interned[key] = len(names)
                    names.append((codes[relay],)
                                 + (names[rest_id - 1] if rest_id else ()))
                known.append(chain_id)
            ids[:, i] = np.array(known, dtype=np.intp)[inverse]
        chain_ids[rids, :hops] = ids
    # Every (assignment, non-terminal region) in assignment order; the
    # first of each (stream, region) is the plan.
    a, h, rows = result.hop_steps()
    regions = rows[a, h]
    stream_ids = result.streams.stream_id[result.position[a]]
    __, firsts = np.unique(stream_ids * n + regions, return_index=True)
    firsts.sort()
    plans: RegionPlans = {code: {} for code in codes}
    by_region = list(plans.values())
    for region, sid, chain_id in zip(
            regions[firsts].tolist(), stream_ids[firsts].tolist(),
            chain_ids[route[a[firsts]], h[firsts]].tolist()):
        by_region[region][sid] = names[chain_id]
    if _TEL.enabled:
        relay_hops = _TEL.histogram("reactionplan.relay_hops",
                                    buckets=(1.0, 2.0, 3.0, 4.0, 5.0))
        total = 0
        for by_stream in plans.values():
            total += len(by_stream)
            for relay_chain in by_stream.values():
                relay_hops.observe(len(relay_chain))
        _TEL.counter("reactionplan.plans").inc(total)
    return plans
