"""Figure 5: dynamic video-conferencing demand over one day.

Paper targets: aggregate peak-to-trough demand ratio ~145x with a 48%
increase within five minutes; an individual pair reaches ~247x with a
3.4x five-minute surge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analysis.ascii import series_panel
from repro.experiments.base import format_table, standard_demand


@dataclass
class DemandFigure:
    times: np.ndarray
    total: np.ndarray
    example_pair: Tuple[str, str]
    example: np.ndarray
    slot_s: float

    @staticmethod
    def _peak_ratio(series: np.ndarray) -> float:
        return float(series.max() / series.min())

    @staticmethod
    def _max_5min_increase(series: np.ndarray, slot_s: float) -> float:
        step = max(1, int(round(300.0 / slot_s)))
        a, b = series[:-step], series[step:]
        return float(np.max(b / np.maximum(a, 1e-12)))

    @property
    def total_peak_ratio(self) -> float:
        return self._peak_ratio(self.total)

    @property
    def example_peak_ratio(self) -> float:
        return self._peak_ratio(self.example)

    @property
    def total_surge_5min(self) -> float:
        return self._max_5min_increase(self.total, self.slot_s)

    @property
    def example_surge_5min(self) -> float:
        return self._max_5min_increase(self.example, self.slot_s)

    def lines(self) -> List[str]:
        rows = [
            ["aggregate", self.total_peak_ratio, self.total_surge_5min],
            [f"example pair {self.example_pair}", self.example_peak_ratio,
             self.example_surge_5min],
        ]
        lines = format_table(
            ["demand series", "peak/trough ratio", "max 5-min increase (x)"],
            rows, title="Fig. 5 — dynamic demand over one day")
        lines.append("")
        lines += series_panel("aggregate demand", self.total, unit=" Mbps")
        lines += series_panel(
            f"pair {self.example_pair} demand", self.example, unit=" Mbps")
        return lines


#: The demand slot and the day plotted (seconds).
SLOT_S = 60.0
DAY_S = 86400.0


def run() -> DemandFigure:
    slot_s, day_s = SLOT_S, DAY_S
    m = standard_demand()
    times = np.arange(0.0, day_s, slot_s)
    total = m.total_mbps(times)
    # Example pair: the heaviest pair (a representative popular route).
    pair = max(m.pairs, key=lambda p: m.pair_scale(*p))
    series = m.rate_mbps(pair[0], pair[1], times)
    return DemandFigure(times, total, pair, series, slot_s)
