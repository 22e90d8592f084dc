"""Figures 14 and 15: severe video and audio degradation cases.

Both figures are views over the §6.1 comparison run (fig13):

* Fig. 14 — proportions of long video stalls (2-5 s, 5-10 s, > 10 s);
  paper: XRON has 49.1% fewer >= 2 s stalls than Internet-only.
* Fig. 15 — proportions of low audio-fluency scores (1 and 2);
  paper: XRON has 65.2% fewer bad (score 1) audio experiences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments import fig13_qoe
from repro.experiments.base import format_table
from repro.experiments.fig13_qoe import QoEComparison


@dataclass
class BadCasesFigures:
    comparison: QoEComparison

    def stall_buckets(self) -> Dict[str, Tuple[int, int, int]]:
        return {name: s.stall_buckets
                for name, s in self.comparison.summaries.items()}

    def low_audio(self) -> Dict[str, Tuple[float, float]]:
        """(score-1 fraction, score-<=2 fraction) per variant."""
        return {name: (s.bad_audio_fraction, s.low_audio_fraction)
                for name, s in self.comparison.summaries.items()}

    def lines(self) -> List[str]:
        rows14 = [[name, *buckets]
                  for name, buckets in self.stall_buckets().items()]
        lines = format_table(["version", "2-5s", "5-10s", ">10s"], rows14,
                             title="Fig. 14 — long video stall counts")
        lines.append("  >=2 s stall change XRON vs Internet-only: "
                     f"{self.comparison.long_stall_reduction() * 100:+.1f}% "
                     "(paper -49.1%)")
        lines.append("")
        rows15 = [[name, bad, low]
                  for name, (bad, low) in self.low_audio().items()]
        lines += format_table(
            ["version", "score=1 fraction", "score<=2 fraction"], rows15,
            title="Fig. 15 — low audio-fluency scores")
        lines.append(
            "  bad-audio change XRON vs Internet-only: "
            f"{self.comparison.reduction_vs('bad_audio_fraction') * 100:+.1f}"
            "% (paper -65.2%)")
        return lines


def run(**fig13_kwargs) -> BadCasesFigures:
    """Runs fig13 fine-grained: its keywords go to `fig13_qoe.run`.

    Stall-duration buckets (2-5 s / 5-10 s / > 10 s) are only meaningful
    at ~1 s evaluation steps, so the default run is short but
    fine-grained; with a coarser ``eval_step_s``, treat the bucket
    columns as indicative only.
    """
    fig13_kwargs.setdefault("days", 0.25)
    fig13_kwargs.setdefault("epoch_s", 300.0)
    fig13_kwargs.setdefault("eval_step_s", 1.0)
    fig13_kwargs.setdefault("start_hour", 6.0)
    return BadCasesFigures(fig13_qoe.run(**fig13_kwargs))
