"""Figures 1 and 2: Internet vs premium latency and loss over one day.

Paper targets: premium links have lower and far more stable latency/loss;
the worst individual Internet latency spike reaches ~20.5 s; the maximum
*average* loss rate is ~3.3% while an individual pair peaks at ~39%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analysis.ascii import series_panel
from repro.experiments.base import format_table, standard_underlay
from repro.underlay.linkstate import LinkType


@dataclass
class LinkStateFigures:
    """Series and headline stats for Figs. 1 and 2."""

    times: np.ndarray
    avg_latency_internet: np.ndarray
    avg_latency_premium: np.ndarray
    avg_loss_internet: np.ndarray
    avg_loss_premium: np.ndarray
    example_pair: Tuple[str, str]
    example_latency_internet: np.ndarray
    example_loss_internet: np.ndarray

    @property
    def max_example_latency_ms(self) -> float:
        return float(self.example_latency_internet.max())

    @property
    def max_avg_loss_pct(self) -> float:
        return float(self.avg_loss_internet.max() * 100.0)

    @property
    def max_example_loss_pct(self) -> float:
        return float(self.example_loss_internet.max() * 100.0)

    def lines(self) -> List[str]:
        rows = [
            ["Internet avg latency (ms)",
             float(self.avg_latency_internet.mean()),
             float(self.avg_latency_internet.max())],
            ["Premium avg latency (ms)",
             float(self.avg_latency_premium.mean()),
             float(self.avg_latency_premium.max())],
            ["Internet avg loss (%)",
             float(self.avg_loss_internet.mean() * 100),
             self.max_avg_loss_pct],
            ["Premium avg loss (%)",
             float(self.avg_loss_premium.mean() * 100),
             float(self.avg_loss_premium.max() * 100)],
            [f"Example pair {self.example_pair} max latency (ms)", "",
             self.max_example_latency_ms],
            [f"Example pair {self.example_pair} max loss (%)", "",
             self.max_example_loss_pct],
        ]
        lines = format_table(
            ["series", "mean", "max"], rows,
            title="Fig. 1/2 — Internet vs premium link states over one day")
        lines.append("")
        lines += series_panel("Internet avg latency over the day",
                              self.avg_latency_internet, unit=" ms")
        lines += series_panel("Premium avg latency over the day",
                              self.avg_latency_premium, unit=" ms")
        lines += series_panel("Example-pair Internet latency (log)",
                              self.example_latency_internet, unit=" ms",
                              log_scale=True)
        return lines


#: The sampling step and the day measured (seconds).
STEP_S = 30.0
DAY_S = 86400.0


def run() -> LinkStateFigures:
    """Measure every directed link of both tiers for one day."""
    step_s, day_s = STEP_S, DAY_S
    u = standard_underlay()
    times = np.arange(0.0, day_s, step_s)
    avg_lat_i, avg_loss_i = u.average_state(LinkType.INTERNET, times)
    avg_lat_p, avg_loss_p = u.average_state(LinkType.PREMIUM, times)

    # The example pair: the Internet link with the worst latency spike,
    # sampled finely so the spike magnitude is not smoothed away.
    fine = np.arange(0.0, day_s, 5.0)
    worst_link = max(u.links_of_type(LinkType.INTERNET),
                     key=lambda lk: float(lk.latency_ms(fine).max()))
    return LinkStateFigures(
        times=times,
        avg_latency_internet=avg_lat_i,
        avg_latency_premium=avg_lat_p,
        avg_loss_internet=avg_loss_i,
        avg_loss_premium=avg_loss_p,
        example_pair=(worst_link.src.code, worst_link.dst.code),
        example_latency_internet=worst_link.latency_ms(fine),
        example_loss_internet=worst_link.loss_rate(fine))
