"""Figure 17: comprehensive cost analysis.

Four panels:

* (a) overlay path length — paper: normal paths average 1.19 hops,
  reaction paths 1.04; 94% of paths are <= 2 hops;
* (b) premium-link usage — paper: only ~3% of traffic rides premium
  links, everything else stays on Internet links;
* (c) container usage — paper: XRON's capacity control uses 57% fewer
  containers than a fixed peak-provisioned allocation and sits close to
  an oracle-optimal allocation;
* (d) overall cost — paper: XRON is 4.73x cheaper than the premium-only
  version and 1.37x more expensive than Internet-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.controlplane.model import CONTAINER_CAPACITY_MBPS
from repro.core.config import SimulationConfig
from repro.core.simulator import SimulationResult
from repro.core.system import XRONSystem
from repro.core.variants import standard_variants
from repro.elastic.autoscaler import (FixedAllocation, OptimalAllocation,
                                      ProactiveAutoscaler,
                                      evaluate_autoscaler)
from repro.elastic.containers import ContainerPool
from repro.analysis.ascii import ascii_cdf
from repro.experiments.base import format_table
from repro.traffic.demand import DemandModel
from repro.underlay.config import UnderlayConfig


@dataclass
class CostAnalysis:
    #: (a) demand-weighted hop statistics.
    normal_hop_mean: float
    reaction_hop_mean: float
    fraction_paths_le_2_hops: float
    #: (b) premium share of transmitted volume.
    premium_share: float
    #: (c) per-slot container counts per policy, pooled over regions.
    containers: Dict[str, np.ndarray]
    #: (d) total cost per version, and per-pair normalised cost CDFs.
    total_cost: Dict[str, float]
    pair_costs: Dict[str, np.ndarray]

    @property
    def container_reduction_vs_fixed(self) -> float:
        xron = float(np.mean(self.containers["XRON"]))
        fixed = float(np.mean(self.containers["Fixed Allocation"]))
        return (fixed - xron) / fixed if fixed else 0.0

    @property
    def premium_over_xron(self) -> float:
        return self.total_cost["Premium only"] / self.total_cost["XRON"]

    @property
    def xron_over_internet(self) -> float:
        return self.total_cost["XRON"] / self.total_cost["Internet only"]

    def lines(self) -> List[str]:
        rows = [
            ["(a) mean normal-path hops", self.normal_hop_mean,
             "paper 1.19"],
            ["(a) mean reaction-path hops", self.reaction_hop_mean,
             "paper 1.04"],
            ["(a) paths <= 2 hops", self.fraction_paths_le_2_hops,
             "paper 0.94"],
            ["(b) premium traffic share", self.premium_share, "paper ~0.03"],
            ["(c) container reduction vs fixed",
             self.container_reduction_vs_fixed, "paper 0.57"],
            ["(c) XRON mean containers/region",
             float(np.mean(self.containers["XRON"])), ""],
            ["(c) optimal mean containers/region",
             float(np.mean(self.containers["Optimal Allocation"])), ""],
            ["(d) premium-only / XRON cost", self.premium_over_xron,
             "paper 4.73"],
            ["(d) XRON / Internet-only cost", self.xron_over_internet,
             "paper 1.37"],
        ]
        lines = format_table(["metric", "value", "reference"], rows,
                             title="Fig. 17 — cost analysis")
        lines.append("")
        lines += ascii_cdf(self.containers["XRON"], height=6,
                           label="(c) CDF of XRON gateways per region-slot")
        lines.append("")
        lines += ascii_cdf(self.pair_costs["XRON"], height=6,
                           label="(d) CDF of normalised per-pair cost (XRON)")
        return lines


def _region_demand_series(demand: DemandModel, codes: List[str],
                          slot_s: float, days: int,
                          relay_overhead: float = 1.2
                          ) -> Dict[str, np.ndarray]:
    """Per-region processed traffic (egress + ingress + relay margin)."""
    t = np.arange(0.0, days * 86400.0, slot_s)
    per_region = {c: np.zeros_like(t) for c in codes}
    for (a, b) in demand.pairs:
        series = demand.rate_mbps(a, b, t)
        per_region[a] = per_region[a] + series
        per_region[b] = per_region[b] + series
    return {c: v * relay_overhead / 2.0 for c, v in per_region.items()}


#: Panel (c)'s capacity emulation: its length (days), its slot
#: (seconds), and the factor lifting it to the full-scale traffic the
#: paper uses for capacity analysis.
SCALING_DAYS = 14
SCALING_SLOT_S = 300.0
SCALING_DEMAND_SCALE = 10.0


#: The seed of the world, the control epoch and the evaluation step
#: (seconds).
SEED = 1
EPOCH_S = 600.0
EVAL_STEP_S = 20.0


def run(hours: float = 24.0) -> CostAnalysis:
    """Panels (a), (b) and (d) over `hours` of the three versions, and
    panel (c)'s `SCALING_DAYS` capacity emulation."""
    seed, epoch_s, eval_step_s = SEED, EPOCH_S, EVAL_STEP_S
    scaling_days, scaling_slot_s = SCALING_DAYS, SCALING_SLOT_S
    horizon = hours * 3600.0 + 2 * epoch_s
    system = XRONSystem(
        seed=seed,
        underlay_config=UnderlayConfig(horizon_s=max(horizon, 2 * 86400.0)),
        sim_config=SimulationConfig(epoch_s=epoch_s,
                                    eval_step_s=eval_step_s, seed=seed))
    results: Dict[str, SimulationResult] = {}
    for variant in standard_variants():
        results[variant.name] = system.run(variant=variant, start_hour=0.0,
                                           hours=hours)
    xron_res = results["XRON"]

    # (a) hop counts, demand-weighted.
    n_hops = np.array([h for h, __ in xron_res.normal_hop_samples])
    n_w = np.array([w for __, w in xron_res.normal_hop_samples])
    r_hops = np.array([h for h, __ in xron_res.reaction_hop_samples])
    r_w = np.array([w for __, w in xron_res.reaction_hop_samples])
    normal_mean = float(np.average(n_hops, weights=n_w)) if n_hops.size else 1.0
    reaction_mean = (float(np.average(r_hops, weights=r_w))
                     if r_hops.size else 1.0)
    le2 = float(np.average(n_hops <= 2, weights=n_w)) if n_hops.size else 1.0

    # (c) container policies over two weeks of per-region demand.
    b_c = CONTAINER_CAPACITY_MBPS
    region_series = _region_demand_series(system.demand, system.underlay.codes,
                                          scaling_slot_s, scaling_days)
    region_series = {c: v * SCALING_DEMAND_SCALE
                     for c, v in region_series.items()}
    # Fixed Allocation provisions to the previous week's peak; with a
    # shorter emulation use the first half of the series as 'previous'.
    week_slots = min(int(7 * 86400.0 / scaling_slot_s),
                     int(scaling_days * 86400.0 / scaling_slot_s) // 2)
    containers: Dict[str, List[np.ndarray]] = {
        "XRON": [], "Fixed Allocation": [], "Optimal Allocation": []}
    rng_seed = 0
    for code, series in sorted(region_series.items()):
        prev_week, eval_series = series[:week_slots], series[week_slots:]
        policies = {
            "XRON": ProactiveAutoscaler(b_c, min_history=144),
            "Fixed Allocation": FixedAllocation(b_c, float(prev_week.max())),
            "Optimal Allocation": OptimalAllocation(b_c, eval_series),
        }
        for name, policy in policies.items():
            pool = ContainerPool(code, np.random.default_rng(rng_seed),
                                 initial=1, max_containers=10000)
            rng_seed += 1
            warmup = min(288, max(0, len(eval_series) // 4))
            stats = evaluate_autoscaler(policy, eval_series, b_c, pool,
                                        slot_s=scaling_slot_s,
                                        warmup_slots=warmup)
            containers[name].append(stats.containers)
    pooled = {name: np.concatenate(arrs) for name, arrs in containers.items()}

    # (d) costs.
    total_cost = {name: res.ledger.breakdown().total
                  for name, res in results.items()}
    pair_costs = {}
    for name, res in results.items():
        costs = np.array([c for __, c in sorted(res.ledger.all_pair_costs()
                                                .items())])
        peak = costs.max() if costs.size else 1.0
        pair_costs[name] = costs / peak if peak > 0 else costs

    return CostAnalysis(
        normal_hop_mean=normal_mean,
        reaction_hop_mean=reaction_mean,
        fraction_paths_le_2_hops=le2,
        premium_share=xron_res.premium_traffic_share(),
        containers=pooled,
        total_cost=total_cost,
        pair_costs=pair_costs)
