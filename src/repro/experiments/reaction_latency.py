"""Extra experiment: fast-reaction detection latency (§4.3's claim).

"Since the XRON controller is not involved in this control loop,
short-term link degradations can be handled within seconds."

This experiment injects a series of known degradations on an otherwise
calm link, runs the *event-driven* deployment (probe bursts every 400 ms,
hysteresis detection, local plan switch), and measures — per event — the
time from degradation onset until the tracked session is actually riding
the premium backup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.variants import xron
from repro.experiments.base import format_table, reaction_train


@dataclass
class ReactionLatency:
    #: Onset-to-backup delay per detected event, seconds.
    delays_s: np.ndarray
    injected: int
    detected: int
    #: Onset-to-revert delay after each event ends (recovery hysteresis).
    revert_delays_s: np.ndarray

    @property
    def detection_rate(self) -> float:
        return self.detected / self.injected if self.injected else 0.0

    @property
    def mean_delay_s(self) -> float:
        return float(self.delays_s.mean()) if self.delays_s.size else 0.0

    @property
    def p95_delay_s(self) -> float:
        return (float(np.percentile(self.delays_s, 95))
                if self.delays_s.size else 0.0)

    def lines(self) -> List[str]:
        rows = [
            ["events injected", self.injected],
            ["events handled", self.detected],
            ["mean onset-to-backup delay (s)", self.mean_delay_s],
            ["p95 onset-to-backup delay (s)", self.p95_delay_s],
            ["mean revert delay after recovery (s)",
             float(self.revert_delays_s.mean())
             if self.revert_delays_s.size else 0.0],
        ]
        lines = format_table(["metric", "value"], rows,
                             title="Reaction latency — §4.3's 'handled "
                                   "within seconds'")
        lines.append("")
        lines.append("the paper contrasts this with the minute-level "
                     "global control loop")
        return lines


#: The seed of the testbed and the degradation train, and the spacing
#: of its events (seconds).
SEED = 13
EVENT_SPACING_S = 60.0


def run(n_events: int = 10) -> ReactionLatency:
    """Inject `n_events` degradations and measure handling latency."""
    seed, event_spacing_s = SEED, EVENT_SPACING_S
    __, delays, reverts = reaction_train(
        seed, n_events, event_spacing_s, epoch_s=3600.0, variant=xron())
    return ReactionLatency(delays, n_events, len(delays), reverts)
