"""Extra ablation: the latency/cost weight trade-off (§5.2).

The objective mixes path latency and resource cost with operator-chosen
weights.  In the two-step heuristic the exchange rate surfaces as
`cost_ms_per_fee` — how many milliseconds of latency one normalised fee
unit is worth inside the shortest-path edge weights.  Sweeping it traces
the Pareto frontier between mean path latency and network cost: at zero
the controller buys the fastest (usually premium) path regardless of
price; as the exchange rate grows it shifts demand onto cheap Internet
links and relays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.controlplane.model import ControlConfig
from repro.controlplane.objective import evaluate_objective
from repro.controlplane.pathcontrol import path_control
from repro.experiments.base import (format_table, standard_demand,
                                    standard_underlay)
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import StreamWorkload
from repro.underlay.topology import Underlay


@dataclass
class WeightSweep:
    #: cost_ms_per_fee -> (mean weighted latency/limit, epoch network
    #: cost, premium traffic share)
    points: Dict[float, Tuple[float, float, float]]

    def latencies(self) -> List[float]:
        return [self.points[k][0] for k in sorted(self.points)]

    def costs(self) -> List[float]:
        return [self.points[k][1] for k in sorted(self.points)]

    def premium_shares(self) -> List[float]:
        return [self.points[k][2] for k in sorted(self.points)]

    def is_pareto_monotone(self) -> bool:
        """Raising the cost weight must not raise cost (up to noise)."""
        costs = self.costs()
        return all(b <= a * 1.02 for a, b in zip(costs[:-1], costs[1:]))

    def lines(self) -> List[str]:
        rows = [[k, *self.points[k]] for k in sorted(self.points)]
        lines = format_table(
            ["cost_ms_per_fee", "norm. latency (UtilLat/streams)",
             "epoch network cost", "premium share"], rows,
            title="Ablation — latency/cost exchange rate in edge weights")
        lines.append("")
        lines.append("the default (120 ms/fee) sits where premium usage "
                     "has collapsed but relays are still worth their fee")
        return lines


def run(underlay: Optional[Underlay] = None,
        exchange_rates: Sequence[float] = (0.0, 30.0, 60.0, 120.0, 240.0,
                                           480.0),
        n_epochs: int = 4, epoch_s: float = 3600.0,
        seed: int = 17) -> WeightSweep:
    u = underlay if underlay is not None else standard_underlay()
    demand = standard_demand(seed)
    workload = StreamWorkload(np.random.default_rng(seed),
                              max_streams_per_pair=2)
    gateways = {c: 30 for c in u.codes}

    sums: Dict[float, List[Tuple[float, float, float]]] = {
        rate: [] for rate in exchange_rates}
    for e in range(n_epochs):
        now = 6 * 3600.0 + e * epoch_s
        state = u.snapshot(now)
        matrix = TrafficMatrix.from_model(demand, now)
        streams = workload.decompose(matrix)
        n_streams = max(len(streams), 1)
        for rate in exchange_rates:
            config = ControlConfig(cost_ms_per_fee=rate)
            result = path_control(streams, u.codes, state, config,
                                  gateways=gateways, fees=u.pricing)
            objective = evaluate_objective(result, state, config, u.pricing,
                                           gateways, epoch_s)
            premium = sum(result.premium_usage.values())
            internet = sum(result.internet_egress.values())
            share = premium / (premium + internet) if premium + internet else 0
            sums[rate].append((objective.util_lat / n_streams,
                               objective.util_cost, share))

    points = {rate: tuple(float(np.mean([v[i] for v in vals]))
                          for i in range(3))
              for rate, vals in sums.items()}
    return WeightSweep(points)  # type: ignore[arg-type]
