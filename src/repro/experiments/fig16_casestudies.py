"""Figure 16: network-degradation case studies.

Two scripted traces on a popular region pair:

* (a) long-term degradation — the direct Internet link suffers one
  sustained multi-hour latency/loss episode (paper: 17:42-23:37).  XRON
  reroutes over *alternative Internet links* and keeps latency steady.
* (b) short-term frequent degradation — the direct Internet link is the
  best path but drops packets every few minutes (paper: 00:13-09:04).
  Fast reaction rides out each drop on premium backups.

Paper target: XRON cuts the maximum stream latency by >184x vs the
Internet-only version in both cases, staying near the premium-only line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.system import XRONSystem
from repro.core.variants import standard_variants
from repro.experiments.base import format_table
from repro.underlay.config import UnderlayConfig
from repro.underlay.linkstate import LinkType
from repro.underlay.scenarios import (inject_events, long_term_degradation,
                                      short_frequent_degradations)


@dataclass
class CaseStudy:
    name: str
    pair: Tuple[str, str]
    times: np.ndarray
    #: Variant name -> effective latency series for the pair.
    latency: Dict[str, np.ndarray]
    window: Tuple[float, float]

    def max_latency(self, variant: str) -> float:
        lo, hi = self.window
        mask = (self.times >= lo) & (self.times < hi)
        return float(self.latency[variant][mask].max())

    @property
    def xron_improvement(self) -> float:
        return self.max_latency("Internet only") / self.max_latency("XRON")


@dataclass
class CaseStudies:
    long_term: CaseStudy
    short_term: CaseStudy

    def lines(self) -> List[str]:
        rows = []
        for case in (self.long_term, self.short_term):
            for variant in case.latency:
                rows.append([case.name, variant,
                             case.max_latency(variant)])
            rows.append([case.name, "XRON improvement",
                         f"{case.xron_improvement:.0f}x (paper >184x)"])
        return format_table(
            ["case", "variant", "max latency in window (ms)"], rows,
            title="Fig. 16 — degradation case studies")


#: The seed of the world, the evaluation step and the control epoch
#: (seconds).
SEED = 5
EVAL_STEP_S = 15.0
EPOCH_S = 300.0


def run() -> CaseStudies:
    seed, eval_step_s, epoch_s = SEED, EVAL_STEP_S, EPOCH_S
    studies = []
    # Each case simulates only its window (plus margin), not a full day —
    # the figures zoom into the degradation spans anyway.
    for case_name, window, sim_span_h, make_events in (
            ("long-term", (17.7 * 3600.0, 23.62 * 3600.0), (17.0, 7.5),
             lambda lo, hi: long_term_degradation(
                 lo, hi, latency_add_ms=9000.0, loss_add=0.12)),
            ("short-term", (0.22 * 3600.0, 9.07 * 3600.0), (0.0, 9.5),
             lambda lo, hi: short_frequent_degradations(
                 lo, hi, period_s=240.0, duration_s=15.0,
                 latency_add_ms=11000.0, loss_add=0.2))):
        system = XRONSystem(
            seed=seed,
            underlay_config=UnderlayConfig(horizon_s=2 * 86400.0),
            sim_config=SimulationConfig(epoch_s=epoch_s,
                                        eval_step_s=eval_step_s, seed=seed))
        # A heavy pair: the two largest-demand endpoints.
        pair = max(system.demand.pairs,
                   key=lambda p: system.demand.pair_scale(*p))
        inject_events(system.underlay, pair[0], pair[1], LinkType.INTERNET,
                      make_events(*window), keep_existing=True)

        start_h, hours = sim_span_h
        latency: Dict[str, np.ndarray] = {}
        times = None
        for variant in standard_variants():
            res = system.run(variant=variant, start_hour=start_h, hours=hours)
            idx = res.pair_index(*pair)
            latency[variant.name] = res.latency_ms[idx]
            times = res.times
        assert times is not None
        studies.append(CaseStudy(case_name, pair, times, latency, window))
    return CaseStudies(studies[0], studies[1])
