"""Figure 20: prediction-based proactive scaling vs reactive scaling.

Both policies replay the same two weeks of per-region demand against
container pools with realistic provisioning delays.  The error rate is
the per-slot fraction of demand left uncovered (capacity
under-provisioning).

Paper targets: proactive scaling leaves only ~2.3% of slots
under-provisioned (prevents 97.7% of the duration) and cuts the mean
error rate by 91% relative to reactive scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.controlplane.model import CONTAINER_CAPACITY_MBPS
from repro.elastic.autoscaler import (ProactiveAutoscaler, ReactiveAutoscaler,
                                      UnderProvisioningStats,
                                      evaluate_autoscaler)
from repro.elastic.containers import ContainerPool
from repro.experiments.base import format_table, standard_demand
from repro.experiments.fig17_cost import _region_demand_series
from repro.underlay.regions import default_regions


@dataclass
class ScalingComparison:
    #: Pooled per-slot error rates per policy.
    error_rates: Dict[str, np.ndarray]

    def under_provisioned_fraction(self, policy: str) -> float:
        return float(np.mean(self.error_rates[policy] > 0))

    def mean_error(self, policy: str) -> float:
        return float(np.mean(self.error_rates[policy]))

    @property
    def error_reduction(self) -> float:
        r = self.mean_error("Reactive")
        p = self.mean_error("Proactive")
        return (r - p) / r if r else 0.0

    @property
    def prevented_duration(self) -> float:
        r = self.under_provisioned_fraction("Reactive")
        p = self.under_provisioned_fraction("Proactive")
        return (r - p) / r if r else 0.0

    def lines(self) -> List[str]:
        rows = []
        for policy in ("Reactive", "Proactive"):
            rows.append([policy, self.mean_error(policy),
                         self.under_provisioned_fraction(policy)])
        lines = format_table(
            ["policy", "mean error rate", "time under-provisioned"], rows,
            title="Fig. 20 — proactive vs reactive scaling")
        lines.append("")
        lines.append(f"error-rate reduction: {self.error_reduction * 100:.0f}%"
                     " (paper 91%)")
        lines.append("under-provisioned duration prevented: "
                     f"{self.prevented_duration * 100:.1f}% (paper 97.7%)")
        return lines


#: Days the predictor warms up before errors count.
WARMUP_DAYS = 2


#: The days emulated, the demand slot (seconds), the seed of the
#: demand model, and the factor on it (see `run`).
DAYS = 14
SLOT_S = 300.0
SEED = 3
DEMAND_SCALE = 10.0


def run() -> ScalingComparison:
    """`DEMAND_SCALE` lifts the model (calibrated to the 10%-of-sessions
    deployment) to the full-scale traffic the paper's emulation uses."""
    days, slot_s, demand_scale = DAYS, SLOT_S, DEMAND_SCALE
    m = standard_demand(SEED)
    b_c = CONTAINER_CAPACITY_MBPS
    region_series = _region_demand_series(m, [r.code for r in
                                              default_regions()],
                                          slot_s, days)
    region_series = {c: v * demand_scale for c, v in region_series.items()}
    warmup = int(WARMUP_DAYS * 86400.0 / slot_s)
    pooled: Dict[str, List[np.ndarray]] = {"Reactive": [], "Proactive": []}
    rng_seed = 100
    for code, series in sorted(region_series.items()):
        policies = {
            "Reactive": ReactiveAutoscaler(b_c),
            "Proactive": ProactiveAutoscaler(b_c, min_history=144),
        }
        for name, policy in policies.items():
            pool = ContainerPool(code, np.random.default_rng(rng_seed),
                                 initial=1, max_containers=10000)
            rng_seed += 1
            stats: UnderProvisioningStats = evaluate_autoscaler(
                policy, series, b_c, pool, slot_s=slot_s,
                warmup_slots=warmup)
            pooled[name].append(stats.error_rates)
    return ScalingComparison(
        {name: np.concatenate(arrs) for name, arrs in pooled.items()})
