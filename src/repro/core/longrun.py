"""Multi-day (weeks-scale) simulation driver.

The paper's Fig. 13 spans sixty days.  One giant underlay horizon would
hold tens of millions of degradation events; instead this driver builds
a fresh underlay per simulated day (seeded by day index, pricing shared)
while the *control plane state persists*: the SIB's demand predictors,
the NIB window, and the container pools carry over day boundaries —
exactly what a long-lived production controller experiences.

Only per-day summaries are retained, so a sixty-day run is bounded in
memory regardless of the evaluation grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.simulator import EpochSimulator
from repro.core.variants import VariantSpec, xron
from repro.qoe.metrics import QoESummary
from repro.traffic.demand import DemandModel
from repro.underlay.config import UnderlayConfig
from repro.underlay.regions import default_regions
from repro.underlay.topology import build_underlay


@dataclass
class DailySummary:
    """What survives of one simulated day."""

    day: int
    qoe: QoESummary
    latency_p99_ms: float
    latency_p999_ms: float
    loss_p999_pct: float
    premium_share: float
    mean_containers: float
    network_cost: float
    route_churn: float


@dataclass
class MultiDayResult:
    variant: VariantSpec
    daily: List[DailySummary]

    def series(self, field: str) -> np.ndarray:
        """Per-day series of one summary field (Fig. 13's curves)."""
        if field in ("stall_ratio", "mean_fps", "mean_fluency",
                     "bad_audio_fraction", "low_audio_fraction"):
            return np.array([getattr(d.qoe, field) for d in self.daily])
        return np.array([getattr(d, field) for d in self.daily])

    def mean(self, field: str) -> float:
        return float(self.series(field).mean())


def run_multi_day(days: int, variant: Optional[VariantSpec] = None, *,
                  seed: int = 1,
                  sim_config: Optional[SimulationConfig] = None
                  ) -> MultiDayResult:
    """Simulate days 0 through `days - 1` for one variant.

    Day d runs on an underlay seeded `seed + 1000*d` (fresh link
    conditions every day, shared pricing); the demand model and all
    control-plane state are continuous across the whole span.
    """
    if days < 1:
        raise ValueError(f"need at least one day, got {days}")
    variant = variant if variant is not None else xron()
    regions = default_regions()
    sim_config = (sim_config if sim_config is not None
                  else SimulationConfig(epoch_s=900.0, eval_step_s=60.0,
                                        seed=seed))
    demand = DemandModel(regions, seed)

    def day_underlay(day: int, pricing=None):
        # Generate only the day's window (plus margin): events are placed
        # at absolute times [day*86400, (day+1)*86400 + margin).
        config = UnderlayConfig(horizon_s=86400.0 + 2 * sim_config.epoch_s)
        return build_underlay(regions, config, seed=seed + 1000 * day,
                              pricing=pricing,
                              start_offset=day * 86400.0)

    first = day_underlay(0)
    simulator = EpochSimulator(first, demand, variant, sim_config)
    daily: List[DailySummary] = []
    for day in range(days):
        if day > 0:
            simulator.replace_underlay(day_underlay(day, first.pricing))
        result = simulator.run(day * 86400.0, 86400.0)
        lat = result.latency_percentiles(weighted=False)
        loss = result.loss_percentiles(weighted=False)
        daily.append(DailySummary(
            day=day,
            qoe=result.qoe_summary(),
            latency_p99_ms=lat["99%"],
            latency_p999_ms=lat["99.9%"],
            loss_p999_pct=loss["99.9%"],
            premium_share=result.premium_traffic_share(),
            mean_containers=float(result.containers.mean()),
            network_cost=result.ledger.breakdown().network_cost,
            route_churn=result.mean_route_churn()))
    return MultiDayResult(variant, daily)
