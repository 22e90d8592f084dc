"""Evaluating the §5.2 objective for a control output.

The controller minimises  w_lat * UtilLat + w_cost * UtilCost  where

    UtilLat  = sum over paths of Lat(P_mn) / Lat_Limit_mn
    UtilCost = C_c * N + sum_i C_I(i) * Thpt_I(i)
               + sum_ij C_p(i,j) * Thpt_p(i,j)

This module computes both terms for a `PathControlResult`, which lets
experiments quantify the latency/cost trade-off the two-step heuristic
navigates (`ablation_weights` sweeps the edge weights' fee exchange
rate).
"""

from __future__ import annotations

from typing import Dict

from repro.controlplane.model import ControlConfig, ObjectiveBreakdown
from repro.controlplane.pathcontrol import PathControlResult
from repro.underlay.linkstate import LinkType
from repro.underlay.pricing import PricingModel
from repro.underlay.snapshot import LinkStateSnapshot

#: UtilCost's throughput terms are per unit time; one epoch of sustained
#: Mbps converts to GB via this factor (matches cost.accounting).
GB_PER_MBPS_SECOND = 1.0 / 8000.0


def evaluate_objective(result: PathControlResult, snap: LinkStateSnapshot,
                       config: ControlConfig, pricing: PricingModel,
                       gateways: Dict[str, int],
                       epoch_s: float = 300.0) -> ObjectiveBreakdown:
    """Compute (UtilLat, UtilCost) for one epoch's forwarding decision.

    `gateways` is the container count per region (the N in C_c * N);
    costs are priced for one epoch of sustained traffic.  The
    per-assignment latency limits come from one gather of `snap`'s
    direct premium latencies.
    """
    table = result.streams
    codes, src, dst = table.codes, table.src.tolist(), table.dst.tolist()
    direct = snap.direct_latency(
        [codes[src[p]] for p in result.position.tolist()],
        [codes[dst[p]] for p in result.position.tolist()], LinkType.PREMIUM)
    latency_ms = result.routes.latency_ms.tolist()
    util_lat = 0.0
    for rid, direct_premium in zip(result.route.tolist(), direct):
        limit = config.latency_limit_ms(float(direct_premium))
        if limit > 0:
            util_lat += latency_ms[rid] / limit

    container_cost = pricing.container_cost(
        sum(gateways.values()) * epoch_s / 3600.0)
    internet_cost = sum(
        pricing.internet_fee(region) * mbps * epoch_s * GB_PER_MBPS_SECOND
        for region, mbps in result.internet_egress.items())
    premium_cost = sum(
        pricing.premium_fee(i, j) * mbps * epoch_s * GB_PER_MBPS_SECOND
        for (i, j), mbps in result.premium_usage.items())
    util_cost = container_cost + internet_cost + premium_cost

    return ObjectiveBreakdown(util_lat=util_lat, util_cost=util_cost)
