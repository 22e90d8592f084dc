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
from typing import Dict, Tuple

from repro.controlplane.model import (LinkState, OverlayPath,
                                      path_latency_ms, path_loss_rate)
from repro.controlplane.pathcontrol import PathControlResult
from repro.obs import telemetry as _telemetry
from repro.underlay.linkstate import LinkType

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

    def backup_path(self) -> OverlayPath:
        """The premium overlay path this plan applies."""
        return OverlayPath.via((self.region,) + self.relay_regions,
                               LinkType.PREMIUM)

    @property
    def next_hop(self) -> str:
        return self.relay_regions[0]


def _score(path: OverlayPath, state: LinkState,
           loss_ms_penalty: float = 2500.0) -> float:
    """Plan comparison metric: latency plus a loss penalty."""
    return (path_latency_ms(path, state)
            + loss_ms_penalty * path_loss_rate(path, state))


def route_walk(regions: Tuple[str, ...], state: LinkState,
               loss_ms_penalty: float = 2500.0
               ) -> Dict[str, Tuple[str, ...]]:
    """Algorithm 2's reverse walk for one route (region sequence).

    Returns ``rec_plan[r]`` = ordered relay sequence (excluding ``r``)
    to the destination, for every non-terminal region of the route.
    The walk depends only on the region sequence and the link state, so
    it is memoised per distinct route (`generate_reaction_plans`).
    """
    dst = regions[-1]
    rec_plan: Dict[str, Tuple[str, ...]] = {}
    # Walk in reverse from the region just before the destination.
    for i in range(len(regions) - 2, -1, -1):
        r_i = regions[i]
        best = (dst,)
        best_score = _score(
            OverlayPath.via((r_i, dst), LinkType.PREMIUM),
            state, loss_ms_penalty)
        # Try relaying through a later on-path region r_j and
        # following r_j's (already computed) plan.
        for j in range(i + 1, len(regions) - 1):
            r_j = regions[j]
            candidate = (r_j,) + rec_plan[r_j]
            score = _score(OverlayPath.via((r_i,) + candidate,
                                           LinkType.PREMIUM),
                           state, loss_ms_penalty)
            if score < best_score:
                best, best_score = candidate, score
        rec_plan[r_i] = best
    return rec_plan


def generate_reaction_plans(result: PathControlResult, state: LinkState,
                            loss_ms_penalty: float = 2500.0
                            ) -> Dict[Tuple[int, str], ReactionPlan]:
    """Run Algorithm 2 over every assignment of a path-control result.

    Returns plans keyed by (stream_id, region); the destination region
    needs no plan.  Link state is read through `path_latency_ms` /
    `path_loss_rate`, so a `LinkStateSnapshot` makes every candidate
    score a couple of matrix reads.  Plans depend only on the region
    sequence, so the reverse walk is memoised per distinct
    `path.regions` — at scale most streams share a handful of routes.
    """
    plans: Dict[Tuple[int, str], ReactionPlan] = {}
    plans_by_route: Dict[Tuple[str, ...], Dict[str, Tuple[str, ...]]] = {}
    for assignment in result.assignments:
        path = assignment.path
        regions = path.regions
        # rec_plan[r] = ordered relay sequence (excluding r) to dst.
        rec_plan = plans_by_route.get(regions)
        if rec_plan is None:
            rec_plan = route_walk(regions, state, loss_ms_penalty)
            plans_by_route[regions] = rec_plan
        for r_i in regions[:-1]:
            key = (assignment.stream.stream_id, r_i)
            # A stream may appear with several assignments (demand split);
            # keep the plan of the first (best) path.
            if key not in plans:
                plans[key] = ReactionPlan(assignment.stream.stream_id, r_i,
                                          rec_plan[r_i])
    if _TEL.enabled:
        _TEL.counter("reactionplan.plans").inc(len(plans))
        relay_hops = _TEL.histogram("reactionplan.relay_hops",
                                    buckets=(1.0, 2.0, 3.0, 4.0, 5.0))
        for plan in plans.values():
            relay_hops.observe(len(plan.relay_regions))
    return plans


def naive_premium_path(path: OverlayPath, from_region: str) -> OverlayPath:
    """The paper's p_naive: remaining original hops, all premium.

    Used by tests to verify Property 1 (plans beat the naive premium
    substitution) and by the ablation that disables plan search.
    """
    regions = list(path.regions)
    if from_region not in regions[:-1]:
        raise ValueError(f"{from_region} is not an on-path non-terminal region")
    idx = regions.index(from_region)
    return OverlayPath.via(regions[idx:], LinkType.PREMIUM)
