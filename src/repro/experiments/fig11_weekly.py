"""Figure 11: a region pair's demand over two weeks (three-peak pattern).

Paper target: the traffic repeats a three-peak daily pattern (peaks near
10:00, 16:00, 20:00 local) with visible weekly structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.experiments.base import format_table, standard_demand


@dataclass
class WeeklyDemandFigure:
    times: np.ndarray
    series: np.ndarray
    pair: Tuple[str, str]
    slot_s: float

    def daily_peak_hours(self) -> List[List[float]]:
        """Local hours of the three largest distinct peaks of each weekday."""
        out = []
        slots_per_day = int(round(86400.0 / self.slot_s))
        for d in range(int(self.series.size / slots_per_day)):
            if d % 7 >= 5:
                continue  # weekends are damped; peak timing is noisy
            day = self.series[d * slots_per_day:(d + 1) * slots_per_day]
            hours = self._find_peaks(day)
            out.append(hours)
        return out

    def _find_peaks(self, day: np.ndarray) -> List[float]:
        slots_per_hour = int(round(3600.0 / self.slot_s))
        # Smooth over ~an hour so narrow meeting-block surges do not mask
        # the three broad diurnal peaks.
        window = max(1, slots_per_hour)
        kernel = np.ones(window) / window
        smooth = np.convolve(day, kernel, mode="same")
        hours = []
        masked = smooth.copy()
        for __ in range(3):
            idx = int(np.argmax(masked))
            hours.append(idx / slots_per_hour)
            lo = max(0, idx - 2 * slots_per_hour)
            hi = min(masked.size, idx + 2 * slots_per_hour)
            masked[lo:hi] = -np.inf
        return sorted(hours)

    @property
    def weekend_weekday_ratio(self) -> float:
        slots_per_day = int(round(86400.0 / self.slot_s))
        days = self.series[:14 * slots_per_day].reshape(-1, slots_per_day)
        weekday_peak = np.mean([days[d].max() for d in range(14)
                                if d % 7 < 5])
        weekend_peak = np.mean([days[d].max() for d in range(14)
                                if d % 7 >= 5])
        return float(weekend_peak / weekday_peak)

    def lines(self) -> List[str]:
        peaks = self.daily_peak_hours()
        mean_peaks = np.mean(np.array(peaks), axis=0)
        rows = [
            [f"pair {self.pair} mean weekday peak hours (UTC+8 local)",
             " / ".join(f"{h + 8:.1f}" for h in mean_peaks)],
            ["weekend/weekday peak ratio", self.weekend_weekday_ratio],
        ]
        return format_table(["metric", "value"], rows,
                            title="Fig. 11 — two-week three-peak demand")


#: The demand slot (seconds) and the days plotted.
SLOT_S = 300.0
DAYS = 14


def run() -> WeeklyDemandFigure:
    slot_s, days = SLOT_S, DAYS
    m = standard_demand()
    # A heavy China-China pair shows the pattern most cleanly.
    pair = max(m.pairs, key=lambda p: m.pair_scale(*p))
    times = np.arange(0.0, days * 86400.0, slot_s)
    series = m.rate_mbps(pair[0], pair[1], times)
    return WeeklyDemandFigure(times, series, pair, slot_s)
