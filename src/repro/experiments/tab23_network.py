"""Tables 2 and 3: network-level latency and loss percentiles.

Paper targets: XRON reduces the 99th and 99.9th percentile latency by
1.9x and 9x vs the Internet-only version, and the 99.9th percentile loss
by 263x; both metrics land close to the premium-only version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.config import SimulationConfig
from repro.core.simulator import TABLE_PERCENTILES, SimulationResult
from repro.core.system import XRONSystem
from repro.core.variants import standard_variants
from repro.experiments.base import format_table
from repro.underlay.config import UnderlayConfig


@dataclass
class NetworkTables:
    """Rows of Tables 2 (latency, ms) and 3 (loss, %)."""

    latency_rows: Dict[str, Dict[str, float]]
    loss_rows: Dict[str, Dict[str, float]]
    hours: float

    def improvement(self, column: str, table: str = "latency") -> float:
        """Internet only / XRON for one percentile column (e.g.
        '99.9%')."""
        rows = self.latency_rows if table == "latency" else self.loss_rows
        v = rows["XRON"][column]
        b = rows["Internet only"][column]
        return b / v if v > 0 else float("inf")

    def lines(self) -> List[str]:
        cols = ["average"] + [f"{p:g}%" for p in TABLE_PERCENTILES]
        lat = [[name] + [row[c] for c in cols]
               for name, row in self.latency_rows.items()]
        loss = [[name] + [row[c] for c in cols]
                for name, row in self.loss_rows.items()]
        lines = format_table(["service"] + cols, lat,
                             title="Table 2 — latency (ms), full mesh, "
                                   f"{self.hours:g} h")
        lines.append("")
        lines += format_table(["service"] + cols, loss,
                              title="Table 3 — loss rate (%)")
        lines.append("")
        lines.append(
            "latency improvement vs Internet-only: p99 "
            f"{self.improvement('99%'):.1f}x (paper 1.9x), p99.9 "
            f"{self.improvement('99.9%'):.1f}x (paper 9x)")
        lines.append(
            "loss p99.9 improvement: "
            f"{self.improvement('99.9%', table='loss'):.0f}x (paper 263x)")
        return lines


#: The seed of the world, the simulated start (hour of day), the
#: evaluation step and the control epoch (seconds).
SEED = 1
START_HOUR = 6.0
EVAL_STEP_S = 2.0
EPOCH_S = 300.0


def run(hours: float = 6.0) -> "NetworkTables":
    """Full-mesh sessions between all regions, fine-grained sampling."""
    seed, start_hour, eval_step_s, epoch_s = (SEED, START_HOUR, EVAL_STEP_S,
                                              EPOCH_S)
    horizon = (start_hour + hours) * 3600.0 + 2 * epoch_s
    system = XRONSystem(
        seed=seed,
        underlay_config=UnderlayConfig(horizon_s=max(horizon, 2 * 86400.0)),
        sim_config=SimulationConfig(epoch_s=epoch_s,
                                    eval_step_s=eval_step_s, seed=seed))
    latency_rows: Dict[str, Dict[str, float]] = {}
    loss_rows: Dict[str, Dict[str, float]] = {}
    for variant in standard_variants():
        res: SimulationResult = system.run(variant=variant,
                                           start_hour=start_hour, hours=hours)
        # Full-mesh sessions weight every pair equally (Table 2/3 set-up).
        latency_rows[variant.name] = res.latency_percentiles(
            weighted=False)
        loss_rows[variant.name] = res.loss_percentiles(weighted=False)
    return NetworkTables(latency_rows, loss_rows, hours)
