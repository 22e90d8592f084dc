"""Scenario: capacity planning for a region's gateway fleet.

The elasticity half of XRON (§5.1, §5.3): predict a region's demand with
the DTFT model and compare four provisioning policies over a week —
reactive utilisation-triggered scaling (the cloud-native default),
XRON's prediction-based proactive scaling, static peak provisioning, and
an oracle. Prints the trade-off between container cost and
under-provisioned time.

Run:  python examples/capacity_planning.py  [--region HGH]
"""

import argparse

import numpy as np

from repro.controlplane.model import CONTAINER_CAPACITY_MBPS
from repro.elastic.autoscaler import (FixedAllocation, OptimalAllocation,
                                      ProactiveAutoscaler, ReactiveAutoscaler,
                                      evaluate_autoscaler)
from repro.elastic.containers import ContainerPool
from repro.experiments.fig17_cost import _region_demand_series
from repro.traffic.demand import DemandModel
from repro.underlay.regions import default_regions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--region", default="HGH")
    parser.add_argument("--days", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    slot_s = 300.0
    demand_model = DemandModel(default_regions(), seed=args.seed)
    series_by_region = _region_demand_series(
        demand_model, [r.code for r in default_regions()], slot_s, args.days)
    if args.region not in series_by_region:
        raise SystemExit(f"unknown region {args.region!r}; choose from "
                         f"{sorted(series_by_region)}")
    # Full production scale (the model is calibrated to the 10% rollout).
    series = series_by_region[args.region] * 10.0

    b_c = CONTAINER_CAPACITY_MBPS
    week = min(int(7 * 86400 / slot_s), len(series) // 2)
    warmup = int(2 * 86400 / slot_s)

    print(f"region {args.region}: peak demand "
          f"{series.max():,.0f} Mbps, trough {series.min():,.0f} Mbps "
          f"({series.max() / series.min():.0f}x)\n")

    policies = {
        "Reactive (cloud-native)": ReactiveAutoscaler(b_c),
        "Proactive (XRON, DTFT)": ProactiveAutoscaler(b_c, min_history=144),
        "Fixed (last-week peak)": FixedAllocation(
            b_c, float(series[:week].max())),
        "Optimal (oracle)": OptimalAllocation(b_c, series),
    }

    header = (f"{'policy':<26}{'mean containers':>16}"
              f"{'under-prov time':>17}{'mean shortfall':>16}")
    print(header)
    print("-" * len(header))
    for name, policy in policies.items():
        pool = ContainerPool(args.region, np.random.default_rng(1),
                             initial=1, max_containers=100000)
        stats = evaluate_autoscaler(policy, series, b_c, pool,
                                    slot_s=slot_s, warmup_slots=warmup)
        print(f"{name:<26}{stats.mean_containers:>16.1f}"
              f"{stats.under_provisioned_fraction * 100:>16.2f}%"
              f"{stats.mean_error_rate * 100:>15.3f}%")

    print()
    print("XRON's proactive policy approaches the oracle's container count "
          "while avoiding the reactive policy's shortfalls during the "
          "three daily demand ramps.")


if __name__ == "__main__":
    main()
