"""Figure 9: short degradations vastly outnumber long ones.

Paper target: the count of short-term (<30 s) performance degradations is
about two orders of magnitude larger than long-term (>30 s) ones, for
both link tiers (Internet has far more of both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.ascii import histogram_bar
from repro.experiments.base import format_table, standard_underlay
from repro.underlay.linkstate import LinkType


@dataclass
class DegradationHistogram:
    #: Counts per bucket (0-10 s, 10-20 s, 20-30 s, > 30 s) per tier.
    internet: Tuple[int, int, int, int]
    premium: Tuple[int, int, int, int]
    window_days: float

    @property
    def internet_short_long_ratio(self) -> float:
        short = sum(self.internet[:3])
        return short / max(self.internet[3], 1)

    def lines(self) -> List[str]:
        rows = [
            ["Internet", *self.internet],
            ["Premium", *self.premium],
            ["Internet short/long ratio",
             f"{self.internet_short_long_ratio:.0f}x", "", "", ""],
        ]
        lines = format_table(
            ["tier", "0-10s", "10-20s", "20-30s", ">30s"], rows,
            title="Fig. 9 — degradation durations over "
                  f"{self.window_days:.0f} day(s), all region pairs")
        lines.append("")
        lines += histogram_bar(self.internet,
                               ["0-10s", "10-20s", "20-30s", ">30s"])
        return lines


def run(window_s: Optional[float] = None) -> DegradationHistogram:
    """Histogram degradation-event durations across all directed links.

    `window_s` restricts counting to events starting inside [0, window_s)
    (defaults to the underlay's full generated horizon).
    """
    u = standard_underlay()
    window = window_s if window_s is not None else u.config.horizon_s

    def bucket(link_type: LinkType) -> Tuple[int, int, int, int]:
        totals = np.zeros(4, dtype=int)
        for link in u.links_of_type(link_type):
            tl = link.timeline
            mask = tl.starts < window
            d = tl.durations[mask]
            totals += np.array([
                int(np.sum(d < 10.0)),
                int(np.sum((d >= 10.0) & (d < 20.0))),
                int(np.sum((d >= 20.0) & (d < 30.0))),
                int(np.sum(d >= 30.0))])
        return tuple(int(x) for x in totals)  # type: ignore[return-value]

    return DegradationHistogram(bucket(LinkType.INTERNET),
                                bucket(LinkType.PREMIUM),
                                window / 86400.0)
