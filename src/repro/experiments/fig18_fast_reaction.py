"""Figure 18: the fast-reaction ablation.

Three variants serve 24-hour full-mesh sessions: XRON-Premium (best
premium-only overlay paths), XRON-Basic (no fast reaction), and full
XRON.  The metric is the count of large inter-frame latency gaps, in
buckets 0.4-1 s, 1-2 s and > 2 s.

Paper targets: fast reaction removes 97.6% of 0.4-1 s cases and 99.8% of
1-2 s cases relative to XRON-Basic, and eliminates > 2 s cases; XRON
performs like XRON-Premium.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.system import XRONSystem
from repro.core.variants import xron, xron_basic, xron_premium
from repro.analysis.ascii import histogram_bar
from repro.experiments.base import format_table
from repro.underlay.config import UnderlayConfig

BUCKETS = ((400.0, 1000.0), (1000.0, 2000.0), (2000.0, float("inf")))
BUCKET_LABELS = ("0.4s-1s", "1s-2s", ">2s")


@dataclass
class FastReactionAblation:
    #: Per-variant counts per latency bucket.
    counts: Dict[str, Tuple[int, int, int]]
    hours: float

    def reduction(self, bucket: int) -> float:
        """Relative change of a bucket's count, XRON against XRON-Basic
        (negative = fewer cases)."""
        b = self.counts["XRON-Basic"][bucket]
        v = self.counts["XRON"][bucket]
        return (v - b) / b if b else 0.0

    def lines(self) -> List[str]:
        rows = [[name, *c] for name, c in self.counts.items()]
        lines = format_table(["variant", *BUCKET_LABELS], rows,
                             title="Fig. 18 — large inter-frame latency "
                                   f"cases over {self.hours:g} h")
        lines.append("")
        for name, c in self.counts.items():
            lines.append(name)
            lines += ["  " + l for l in histogram_bar(c, list(BUCKET_LABELS))]
        lines.append("")
        lines.append("0.4-1 s reduction (XRON vs Basic): "
                     f"{self.reduction(0) * 100:+.1f}% (paper -97.6%)")
        lines.append(f"1-2 s reduction: {self.reduction(1) * 100:+.1f}% "
                     "(paper -99.8%)")
        lines.append(f">2 s cases, XRON: {self.counts['XRON'][2]} "
                     "(paper: eliminated)")
        return lines


#: The seed of the world, the simulated start (hour of day), the
#: evaluation step and the control epoch (seconds).
SEED = 1
START_HOUR = 6.0
EVAL_STEP_S = 1.0
EPOCH_S = 300.0


def run(hours: float = 8.0) -> FastReactionAblation:
    seed, start_hour, eval_step_s, epoch_s = (SEED, START_HOUR, EVAL_STEP_S,
                                              EPOCH_S)
    horizon = (start_hour + hours) * 3600.0 + 2 * epoch_s
    system = XRONSystem(
        seed=seed,
        underlay_config=UnderlayConfig(horizon_s=max(horizon, 2 * 86400.0)),
        sim_config=SimulationConfig(epoch_s=epoch_s,
                                    eval_step_s=eval_step_s, seed=seed))
    counts: Dict[str, Tuple[int, int, int]] = {}
    for variant in (xron_premium(), xron_basic(), xron()):
        res = system.run(variant=variant, start_hour=start_hour, hours=hours)
        lat = res.latency_ms.ravel()
        counts[variant.name] = tuple(
            int(np.sum((lat > lo) & (lat <= hi)))
            for lo, hi in BUCKETS)  # type: ignore[assignment]
    return FastReactionAblation(counts, hours)
