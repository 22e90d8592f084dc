"""Figure 3: CDF of the time fraction each link spends in a bad state.

Paper targets (thresholds: latency > 400 ms, loss > 0.5%): almost all
premium links have a near-zero bad-time fraction; Internet links have a
long tail — 20% of them exceed 10% of time with high latency and 22% of
time with high loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.ascii import ascii_cdf
from repro.experiments.base import format_table, standard_underlay
from repro.underlay.linkstate import LinkType
from repro.underlay.topology import Underlay


@dataclass
class BadTimeCdf:
    """Per-link bad-time fractions for both tiers."""

    internet_high_latency: np.ndarray
    internet_high_loss: np.ndarray
    premium_high_latency: np.ndarray
    premium_high_loss: np.ndarray

    def fraction_of_links_over(self, series: np.ndarray,
                               threshold: float) -> float:
        return float(np.mean(series > threshold))

    def lines(self) -> List[str]:
        rows = []
        for name, arr in [
                ("Internet high-latency time", self.internet_high_latency),
                ("Internet high-loss time", self.internet_high_loss),
                ("Premium high-latency time", self.premium_high_latency),
                ("Premium high-loss time", self.premium_high_loss)]:
            rows.append([name, float(np.median(arr)),
                         float(np.quantile(arr, 0.8)), float(arr.max())])
        rows.append(["links with >10% high-latency time (Internet)",
                     self.fraction_of_links_over(self.internet_high_latency,
                                                 0.10), "", ""])
        rows.append(["links with >22% high-loss time (Internet)",
                     self.fraction_of_links_over(self.internet_high_loss,
                                                 0.22), "", ""])
        lines = format_table(
            ["metric", "median", "p80", "max"], rows,
            title="Fig. 3 — fraction of time links are in a bad state")
        lines.append("")
        lines += ascii_cdf(self.internet_high_loss,
                           label="CDF of Internet high-loss time fraction")
        return lines


def run(underlay: Optional[Underlay] = None, step_s: float = 10.0,
        day_s: float = 86400.0) -> BadTimeCdf:
    u = underlay if underlay is not None else standard_underlay()

    def fractions(link_type: LinkType):
        lat, loss = [], []
        for link in u.links_of_type(link_type):
            fl, fo = link.bad_fraction(0.0, day_s, step_s)
            lat.append(fl)
            loss.append(fo)
        return np.array(lat), np.array(loss)

    i_lat, i_loss = fractions(LinkType.INTERNET)
    p_lat, p_loss = fractions(LinkType.PREMIUM)
    return BadTimeCdf(i_lat, i_loss, p_lat, p_loss)
