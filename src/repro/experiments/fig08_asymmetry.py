"""Figure 8: the two directions of an overlay link perform differently.

Paper target: for the example pair, the two directions of the Internet
link are in different states more than 60% of the time — the observation
motivating asymmetric forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.experiments.base import format_table, standard_underlay
from repro.underlay.linkstate import LinkType


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


#: The sampling step, seconds, and the relative latency gap past which
#: two directions differ.
STEP_S = 10.0
RELATIVE_LATENCY_GAP = 0.10


#: The window compared (seconds).
WINDOW_S = 86400.0


def run() -> AsymmetryFigure:
    """Compare each unordered pair's two directions over a day.

    Directions 'differ' at an instant when their quality classifications
    disagree or their latencies are more than `RELATIVE_LATENCY_GAP`
    apart — the notion under Fig. 8's per-direction curves.
    """
    u = standard_underlay()
    step_s, window_s = STEP_S, WINDOW_S
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
        differ = (q_fwd != q_rev) | (gap > RELATIVE_LATENCY_GAP)
        fractions.append(float(differ.mean()))
        labels.append((a, b))
    fractions = np.array(fractions)
    worst = int(np.argmax(fractions))
    return AsymmetryFigure(fractions, labels[worst], float(fractions[worst]))
