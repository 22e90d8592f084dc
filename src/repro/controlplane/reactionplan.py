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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.controlplane.pathcontrol import PathControlResult
from repro.obs import telemetry as _telemetry
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_INDEX, LinkStateSnapshot

_TEL = _telemetry()


@dataclass(frozen=True)
class ReactionPlan:
    """Backup next-hops for one (stream, region): premium links only.

    `relay_regions` is the ordered region sequence from (but excluding)
    the reacting region to the destination; every link is premium.
    """

    stream_id: int
    region: str
    relay_regions: Tuple[str, ...]


def _route_walk(route: List[int], latency: List[float], loss: List[float],
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


def generate_reaction_plans(result: PathControlResult,
                            snap: LinkStateSnapshot,
                            loss_ms_penalty: float = 2500.0
                            ) -> Dict[Tuple[int, str], ReactionPlan]:
    """Run Algorithm 2 over every assignment of a path-control result.

    Returns plans keyed by (stream_id, region); the destination region
    needs no plan.  Plans depend only on the region sequence, so the
    reverse walk runs once per distinct `path.regions` — at scale most
    streams share a handful of routes — over the premium tier of
    `snap`.
    """
    #: regions -> [(non-terminal region, its relay chain), ...]
    routes: Dict[Tuple[str, ...], List[Tuple[str, Tuple[str, ...]]]] = \
        dict.fromkeys(a.path.regions for a in result.assignments)
    codes, index, n = snap.codes, snap.index, len(snap.codes)
    premium = TYPE_INDEX[LinkType.PREMIUM]
    latency = snap.lat[premium].ravel().tolist()
    loss = snap.loss[premium].ravel().tolist()
    #: One code tuple per distinct relay chain: most are a lone ``(dst,)``.
    chains: Dict[Tuple[int, ...], Tuple[str, ...]] = {}
    for regions in routes:
        walk = _route_walk([index[r] for r in regions], latency, loss, n,
                           loss_ms_penalty)
        for relays in walk:
            if relays not in chains:
                chains[relays] = tuple([codes[r] for r in relays])
        routes[regions] = [(region, chains[relays])
                           for region, relays in zip(regions, walk)]
    plans: Dict[Tuple[int, str], ReactionPlan] = {}
    for assignment in result.assignments:
        stream_id = assignment.stream.stream_id
        for region, chain in routes[assignment.path.regions]:
            key = (stream_id, region)
            # A stream may appear with several assignments (demand split);
            # keep the plan of the first (best) path.
            if key not in plans:
                plans[key] = ReactionPlan(stream_id, region, chain)
    if _TEL.enabled:
        _TEL.counter("reactionplan.plans").inc(len(plans))
        relay_hops = _TEL.histogram("reactionplan.relay_hops",
                                    buckets=(1.0, 2.0, 3.0, 4.0, 5.0))
        for plan in plans.values():
            relay_hops.observe(len(plan.relay_regions))
    return plans
