"""Figure 19: benefits of asymmetric forwarding.

At the end of each scheduling period the experiment computes overlay
paths with two controllers — one that only sees round-trip-averaged
(symmetric) link states and one that sees true per-direction states — and
compares each pair's path latency under the *true directional* states.

Paper target: nearly 40% of overlay paths improve with asymmetric
forwarding (speedup ratio > 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import path_control
from repro.experiments.base import (format_table, standard_demand,
                                    standard_underlay)
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import StreamWorkload
from repro.underlay.topology import Underlay


@dataclass
class AsymmetricAblation:
    #: Per (epoch, pair) speedup: symmetric latency / asymmetric latency.
    speedups: np.ndarray

    @property
    def fraction_improved(self) -> float:
        return float(np.mean(self.speedups > 1.0 + 1e-9))

    @property
    def median_speedup_of_improved(self) -> float:
        improved = self.speedups[self.speedups > 1.0 + 1e-9]
        return float(np.median(improved)) if improved.size else 1.0

    def lines(self) -> List[str]:
        rows = [
            ["paths improved by asymmetric forwarding",
             self.fraction_improved, "paper ~0.40"],
            ["median speedup of improved paths",
             self.median_speedup_of_improved, ""],
            ["p90 speedup", float(np.quantile(self.speedups, 0.9)), ""],
            ["max speedup", float(self.speedups.max()), ""],
        ]
        return format_table(["metric", "value", "reference"], rows,
                            title="Fig. 19 — asymmetric forwarding speedup")


def run(underlay: Optional[Underlay] = None, n_epochs: int = 24,
        epoch_s: float = 3600.0, start_s: float = 0.0,
        seed: int = 9) -> AsymmetricAblation:
    u = underlay if underlay is not None else standard_underlay()
    demand = standard_demand(seed)
    config = ControlConfig()
    workload = StreamWorkload(np.random.default_rng(seed),
                              max_streams_per_pair=1)
    speedups: List[float] = []

    for e in range(n_epochs):
        now = start_s + e * epoch_s
        true_state = u.snapshot(now)
        matrix = TrafficMatrix.from_model(demand, now)
        streams = workload.decompose(matrix)
        asym = path_control(streams, u.codes, true_state, config,
                            fees=u.pricing)
        sym = path_control(streams, u.codes, true_state.symmetric(), config,
                           fees=u.pricing)

        asym_best = {pair: asym.assignments[row].path
                     for pair, row in asym.best_per_pair().items()}
        for s in sym.assignments:
            key = (s.stream.src, s.stream.dst)
            if key not in asym_best:
                continue
            asym_path = asym_best[key]
            # Evaluate BOTH paths under the true directional states.
            asym_lat = true_state.path_latency_ms(asym_path)
            sym_lat = true_state.path_latency_ms(s.path)
            if asym_lat > 0:
                speedups.append(sym_lat / asym_lat)
    return AsymmetricAblation(np.array(speedups))
