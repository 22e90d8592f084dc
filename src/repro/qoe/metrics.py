"""The QoE summary every figure reads, and the SLO engine's badness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.qoe.video import FEC_RECOVERABLE_LOSS, STALL_LATENCY_MS


@dataclass
class QoESummary:
    """Everything Figs. 13-15 need, as `SimulationResult.qoe_summary`
    pools it over a run's pairs."""

    stall_ratio: float
    mean_fps: float
    mean_fluency: float
    #: Fraction of samples with fluency score 1 (bad audio).
    bad_audio_fraction: float
    #: Fraction of samples with fluency score <= 2 (low scores).
    low_audio_fraction: float
    #: Long-stall counts in buckets (2-5 s, 5-10 s, > 10 s).
    stall_buckets: Tuple[int, int, int]
    samples: int


def qoe_badness() -> Callable[[float, float], bool]:
    """Per-sample "is this bad?" predicate for the SLO engine.

    A sample is bad exactly when the video stall model would stall on
    it, so SLO breaches line up with the QoE figures.  Returned as a
    closure (rather than the engine importing this module) to keep
    ``repro.obs`` layered below ``repro.qoe``: the engine takes any
    ``(latency_ms, loss_rate) -> bool``.

    It is `repro.qoe.video.stall_series` on one sample: the same two
    comparisons, made on the floats (a NaN compares False in both).
    """
    def badness(latency_ms: float, loss_rate: float) -> bool:
        return (latency_ms > STALL_LATENCY_MS
                or loss_rate > FEC_RECOVERABLE_LOSS)
    return badness
