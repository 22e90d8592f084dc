"""Extra ablation: robust (flap-damped) link-state planning.

The controller normally plans against the *latest* link report.  On an
Internet underlay whose quality wobbles, that invites route flapping:
a link that looks briefly good attracts traffic, degrades again, and the
next epoch flips the path back.  Planning against a pessimistic
percentile over a short NIB window damps the flapping.

This ablation runs XRON twice over the same window — last-sample
planning vs p90-over-6-epochs planning — and compares route churn
(fraction of pairs changing representative paths per epoch), the QoE,
and the premium spend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.config import SimulationConfig
from repro.core.simulator import SimulationResult
from repro.core.system import XRONSystem
from repro.core.variants import xron
from repro.experiments.base import format_table
from repro.underlay.config import UnderlayConfig


@dataclass
class StabilityAblation:
    #: Planning mode -> (mean route churn, stall ratio, premium share).
    outcomes: Dict[str, Tuple[float, float, float]]

    def churn(self, mode: str) -> float:
        return self.outcomes[mode][0]

    @property
    def churn_reduction(self) -> float:
        base = self.churn("last sample")
        robust = self.churn("robust p90")
        return (base - robust) / base if base else 0.0

    def lines(self) -> List[str]:
        rows = [[mode, churn, stall, share]
                for mode, (churn, stall, share) in self.outcomes.items()]
        lines = format_table(
            ["link-state planning", "route churn/epoch", "stall ratio",
             "premium share"], rows,
            title="Ablation — robust link-state planning (flap damping)")
        lines.append("")
        lines.append("robust planning cuts route churn by "
                     f"{self.churn_reduction * 100:.0f}% at comparable QoE")
        return lines


def run(hours: float = 3.0, start_hour: float = 6.0, seed: int = 1,
        epoch_s: float = 300.0, eval_step_s: float = 15.0,
        nib_window: int = 6) -> StabilityAblation:
    horizon = max((start_hour + hours) * 3600.0 + 2 * epoch_s, 2 * 86400.0)
    outcomes: Dict[str, Tuple[float, float, float]] = {}
    for mode, window in (("last sample", 1), ("robust p90", nib_window)):
        system = XRONSystem(
            seed=seed,
            underlay_config=UnderlayConfig(horizon_s=horizon),
            sim_config=SimulationConfig(
                epoch_s=epoch_s, eval_step_s=eval_step_s, seed=seed,
                nib_window=window))
        result: SimulationResult = system.run(
            variant=xron(), start_hour=start_hour, hours=hours)
        outcomes[mode] = (result.mean_route_churn(),
                          result.qoe_summary().stall_ratio,
                          result.premium_traffic_share())
    return StabilityAblation(outcomes)
