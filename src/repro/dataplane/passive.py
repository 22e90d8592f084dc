"""Passive tracking of data packets (§4.1).

Gateways watch the video-conferencing packets they forward (sequence
numbers and ACK timing, as in PlanetSeer-style trackers) and derive
latency/loss samples per adjacent link at no probing cost.  Passive
tracking alone is insufficient for idle links — that is what active
probing covers — but on busy links it supplies most samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.obs import telemetry as _telemetry
from repro.obs.metrics import HotCounters
from repro.underlay.linkstate import LinkType

_TEL = _telemetry()
_FLUSH_COUNTERS = HotCounters("passive.flushes", "passive.samples",
                              "passive.packets")

#: Aggregation key: (src region, dst region, link type).
LinkId = Tuple[str, str, LinkType]
#: Windows flush only when they saw at least this many packets — tiny
#: samples are too noisy to feed the estimator.
MIN_PACKETS = 20


@dataclass
class _Window:
    packets_sent: int = 0
    packets_lost: int = 0
    latency_sum_ms: float = 0.0
    latency_samples: int = 0


@dataclass(frozen=True)
class PassiveSample:
    """One aggregated passive measurement for a link."""

    link: LinkId
    time: float
    latency_ms: float
    loss_rate: float
    packets: int


class PassiveTracker:
    """Aggregates per-packet observations into periodic link samples."""

    def __init__(self):
        self._windows: Dict[LinkId, _Window] = {}

    def record(self, link: LinkId, packets_sent: int, packets_lost: int,
               latency_ms: float) -> None:
        """Account one batch of forwarded data packets on `link`."""
        if packets_sent < 0 or packets_lost < 0 or packets_lost > packets_sent:
            raise ValueError(
                f"invalid packet counts sent={packets_sent} lost={packets_lost}")
        window = self._windows.get(link)
        if window is None:
            window = self._windows[link] = _Window()
        window.packets_sent += packets_sent
        window.packets_lost += packets_lost
        if packets_sent > packets_lost:
            window.latency_sum_ms += latency_ms
            window.latency_samples += 1

    def flush(self, now: float) -> List[PassiveSample]:
        """Emit one sample per sufficiently-busy link and reset windows."""
        samples = []
        for link, window in self._windows.items():
            if window.packets_sent >= MIN_PACKETS:
                loss = window.packets_lost / window.packets_sent
                latency = (window.latency_sum_ms / window.latency_samples
                           if window.latency_samples else 0.0)
                samples.append(PassiveSample(link, now, latency, loss,
                                             window.packets_sent))
        if _TEL.enabled:
            flushes, sampled, packets = _FLUSH_COUNTERS.fetch(_TEL.metrics)
            flushes.inc()
            sampled.inc(len(samples))
            packets.inc(sum(s.packets for s in samples))
        self._windows.clear()
        return samples
