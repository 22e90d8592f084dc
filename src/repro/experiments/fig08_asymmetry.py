"""Figure 8: the two directions of an overlay link perform differently.

Paper target: for the example pair, the two directions of the Internet
link are in different states more than 60% of the time — the observation
motivating asymmetric forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.experiments.base import format_table, standard_underlay
from repro.underlay.linkstate import LinkType
from repro.underlay.topology import Underlay


@dataclass
class AsymmetryFigure:
    #: Per-pair fraction of time the two directions differ in state.
    difference_fractions: np.ndarray
    example_pair: Tuple[str, str]
    example_fraction: float

    @property
    def mean_fraction(self) -> float:
        return float(self.difference_fractions.mean())

    def lines(self) -> List[str]:
        rows = [
            ["mean across pairs", self.mean_fraction],
            ["median", float(np.median(self.difference_fractions))],
            [f"example pair {self.example_pair}", self.example_fraction],
        ]
        return format_table(
            ["fraction of time directions differ", "value"], rows,
            title="Fig. 8 — directional asymmetry of Internet links")


def run(underlay: Optional[Underlay] = None, window_s: float = 86400.0,
        step_s: float = 10.0,
        relative_latency_gap: float = 0.10) -> AsymmetryFigure:
    """Compare each unordered pair's two directions over a day.

    Directions 'differ' at an instant when their quality classifications
    disagree or their latencies are more than `relative_latency_gap`
    apart — the notion under Fig. 8's per-direction curves.
    """
    u = underlay if underlay is not None else standard_underlay()
    times = np.arange(0.0, window_s, step_s)
    seen = set()
    fractions = []
    labels = []
    for (a, b) in u.pairs:
        if (b, a) in seen:
            continue
        seen.add((a, b))
        fwd = u.link(a, b, LinkType.INTERNET)
        rev = u.link(b, a, LinkType.INTERNET)
        q_fwd = fwd.quality_series(0.0, window_s, step_s)
        q_rev = rev.quality_series(0.0, window_s, step_s)
        l_fwd = fwd.latency_ms(times)
        l_rev = rev.latency_ms(times)
        gap = (np.abs(l_fwd - l_rev) / np.maximum(np.maximum(l_fwd, l_rev),
                                                  1e-9))
        differ = (q_fwd != q_rev) | (gap > relative_latency_gap)
        fractions.append(float(differ.mean()))
        labels.append((a, b))
    fractions = np.array(fractions)
    worst = int(np.argmax(fractions))
    return AsymmetryFigure(fractions, labels[worst], float(fractions[worst]))
