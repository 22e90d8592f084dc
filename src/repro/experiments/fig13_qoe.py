"""Figures 13-15: end-to-end application QoE of the three versions.

Paper targets (XRON vs Internet-only): video stall ratio -77%, frame rate
+12%, audio fluency +1.58%; long (>=2 s) stalls -49.1%; bad audio
(score 1) cases -65.2%.  XRON lands close to the premium-only version on
every metric.

The paper reports sixty days of production; the reproduction simulates a
configurable number of days (default three; the quick suite one, the
full suite fourteen) of full-mesh traffic on one continuous underlay —
the per-day statistics are stationary, so the comparison is unchanged.
Over more than one day the report adds Fig. 13's curves: each
version's stall ratio, one point a day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.ascii import series_panel
from repro.core.config import SimulationConfig
from repro.core.simulator import SimulationResult
from repro.core.system import XRONSystem
from repro.core.variants import standard_variants
from repro.experiments.base import format_table
from repro.qoe.metrics import QoESummary
from repro.underlay.config import UnderlayConfig


@dataclass
class QoEComparison:
    """Per-variant QoE summaries plus daily series (Fig. 13's curves)."""

    results: Dict[str, SimulationResult]
    summaries: Dict[str, QoESummary]
    daily: Dict[str, List[QoESummary]]
    days: float

    def reduction_vs(self, metric: str) -> float:
        """Relative reduction of `metric`, XRON against Internet-only
        (e.g. -0.77 means -77%)."""
        v = getattr(self.summaries["XRON"], metric)
        b = getattr(self.summaries["Internet only"], metric)
        if b == 0:
            return 0.0
        return (v - b) / b

    def long_stall_reduction(self) -> float:
        """Reduction in >= 2 s stall counts, XRON vs Internet-only (Fig. 14)."""
        x = sum(self.summaries["XRON"].stall_buckets)
        b = sum(self.summaries["Internet only"].stall_buckets)
        return (x - b) / b if b else 0.0

    def lines(self) -> List[str]:
        rows = []
        for name, s in self.summaries.items():
            rows.append([name, s.stall_ratio, s.mean_fps, s.mean_fluency,
                         s.bad_audio_fraction, s.low_audio_fraction,
                         f"{s.stall_buckets[0]}/{s.stall_buckets[1]}/"
                         f"{s.stall_buckets[2]}"])
        lines = format_table(
            ["version", "stall ratio", "fps", "fluency", "bad audio",
             "low audio", "stalls 2-5/5-10/>10s"],
            rows, title=f"Figs. 13-15 — QoE over {self.days:g} day(s)")
        lines.append("")
        lines.append("stall-ratio change XRON vs Internet-only: "
                     f"{self.reduction_vs('stall_ratio') * 100:+.1f}% "
                     "(paper: -77%)")
        lines.append("frame-rate change: "
                     f"{self.reduction_vs('mean_fps') * 100:+.1f}% "
                     "(paper: +12%)")
        lines.append("fluency change: "
                     f"{self.reduction_vs('mean_fluency') * 100:+.2f}% "
                     "(paper: +1.58%)")
        lines.append("bad-audio change: "
                     f"{self.reduction_vs('bad_audio_fraction') * 100:+.1f}% "
                     "(paper: -65.2%)")
        lines.append("long-stall change: "
                     f"{self.long_stall_reduction() * 100:+.1f}% "
                     "(paper: -49.1%)")
        if any(len(days) > 1 for days in self.daily.values()):
            lines.append("")
            for name, days in self.daily.items():
                stall = [s.stall_ratio for s in days]
                lines += series_panel(f"{name}: daily stall ratio", stall)
                lines.append("  by day: "
                             + " ".join(f"{x:.4g}" for x in stall))
        return lines


#: The seed of the world and the factor on the demand model.
SEED = 1
DEMAND_SCALE = 1.0


def run(days: float = 3.0, epoch_s: float = 900.0,
        eval_step_s: float = 30.0,
        start_hour: float = 0.0) -> QoEComparison:
    """Run the §6.1 three-version comparison."""
    if days <= 0:
        raise ValueError("days must be positive")
    horizon = (start_hour * 3600.0 + days * 86400.0) + 2 * epoch_s
    ucfg = UnderlayConfig(horizon_s=horizon)
    system = XRONSystem(
        seed=SEED, underlay_config=ucfg,
        sim_config=SimulationConfig(epoch_s=epoch_s, eval_step_s=eval_step_s,
                                    demand_scale=DEMAND_SCALE, seed=SEED))
    results, summaries, daily = {}, {}, {}
    for variant in standard_variants():
        res = system.run(variant=variant, start_hour=start_hour,
                         hours=days * 24.0)
        results[variant.name] = res
        summaries[variant.name] = res.qoe_summary()
        daily[variant.name] = res.qoe_per_day()
    return QoEComparison(results, summaries, daily, days)
