"""Packet-level probing with the paper's exact loss-judgment rules.

§4.1: "A probe is judged as a loss when the following conditions happen:
(i) more than twenty succeeding responses are received or (ii) the
response does not arrive after three RTTs."

`PacketLevelProber` simulates every probe packet individually — send
time, network fate, response arrival — and applies those two rules.  It
is the ground-truth reference for the burst kernel's one binomial draw
per burst (`repro.dataplane.probing.burst_draws`; `test_packets.py`
asserts the two agree on measured loss rates), and it exposes judgment
*latency*: how long after a loss the monitor knows.  A test oracle, so
it lives with the tests: nothing in `src/repro` runs it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.dataplane.config import MonitoringConfig
from repro.underlay.linkstate import LinkProcess
from tests.snapshots import ScalarLink


@dataclass
class ProbePacket:
    """One probe and its fate."""

    seq: int
    send_time: float
    #: Response arrival time; None if the network dropped probe or reply.
    response_time: Optional[float]
    #: Filled in by judgment: True = judged lost, False = judged OK.
    judged_lost: Optional[bool] = None
    #: When the judgment was made (response arrival, rule (i), or (ii)).
    judged_at: Optional[float] = None

    @property
    def outstanding(self) -> bool:
        return self.judged_lost is None


@dataclass
class JudgedBurst:
    """Aggregate of judgments that completed during one call."""

    time: float
    judged: int
    lost: int
    #: Mean time from send to judgment, seconds (monitoring lag).
    mean_judgment_delay_s: float

    @property
    def loss_fraction(self) -> float:
        return self.lost / self.judged if self.judged else 0.0


class PacketLevelProber:
    """Per-packet probing of one directed link.

    Call `send_burst(now)` every burst interval and `collect(now)` to
    retrieve the probes judged by `now`.  Judgments follow the paper:

    * a response arriving marks the probe OK (and counts as a "succeeding
      response" for every earlier still-outstanding probe);
    * rule (i): an outstanding probe with more than `reorder_loss_threshold`
      succeeding responses is judged lost immediately;
    * rule (ii): an outstanding probe older than `loss_timeout_rtts` x the
      link's RTT estimate is judged lost.
    """

    #: Spacing between packets inside a burst, seconds.
    PACKET_SPACING_S = 0.002

    def __init__(self, link: LinkProcess, config: MonitoringConfig,
                 rng: np.random.Generator, *,
                 loss_timeout_rtts: float = 3.0,
                 reorder_loss_threshold: int = 20):
        """`config` gives the burst shape; the two judgment rules'
        thresholds default to the paper's (three RTTs, twenty
        succeeding responses)."""
        self.link = link
        self.config = config
        self.loss_timeout_rtts = loss_timeout_rtts
        self.reorder_loss_threshold = reorder_loss_threshold
        self._rng = rng
        self._seq = itertools.count()
        self._pending: List[ProbePacket] = []
        #: Succeeding-response counts per outstanding probe seq.
        self._succeeding: Dict[int, int] = {}
        self._rtt_estimate_s = 2.0 * ScalarLink(link).base_latency_ms / 1000.0
        self.packets_sent = 0

    # ------------------------------------------------------------------ api
    def send_burst(self, now: float) -> None:
        """Send one burst of probe packets at `now`."""
        loss = float(self.link.loss_rate(now))
        latency_s = float(self.link.latency_ms(now)) / 1000.0
        for i in range(self.config.packets_per_burst):
            send_time = now + i * self.PACKET_SPACING_S
            # Probe or its reply lost independently with the link's rate
            # each way.
            dropped = (self._rng.random() < loss
                       or self._rng.random() < loss)
            if dropped:
                response_time = None
            else:
                rtt = 2.0 * latency_s * float(self._rng.uniform(0.98, 1.05))
                response_time = send_time + rtt
            packet = ProbePacket(next(self._seq), send_time, response_time)
            self._pending.append(packet)
            self._succeeding[packet.seq] = 0
            self.packets_sent += 1

    def collect(self, now: float) -> JudgedBurst:
        """Judge everything decidable by `now` and return the aggregate."""
        # Deliver responses in arrival order; each delivery bumps the
        # succeeding-response count of every earlier outstanding probe.
        arrivals = sorted(
            (p for p in self._pending
             if p.outstanding and p.response_time is not None
             and p.response_time <= now),
            key=lambda p: p.response_time)
        for packet in arrivals:
            packet.judged_lost = False
            packet.judged_at = packet.response_time
            self._succeeding.pop(packet.seq, None)
            for other in self._pending:
                if other.outstanding and other.seq < packet.seq:
                    self._succeeding[other.seq] += 1
                    # Rule (i): too many succeeding responses.
                    if (self._succeeding[other.seq]
                            > self.reorder_loss_threshold):
                        other.judged_lost = True
                        other.judged_at = packet.response_time
                        self._succeeding.pop(other.seq, None)

        # Rule (ii): timeout after three (estimated) RTTs.
        timeout = self.loss_timeout_rtts * self._rtt_estimate_s
        for packet in self._pending:
            if packet.outstanding and now - packet.send_time > timeout:
                packet.judged_lost = True
                packet.judged_at = packet.send_time + timeout

        # Refresh the RTT estimate from this round's successes.
        rtts = [p.response_time - p.send_time for p in self._pending
                if p.judged_lost is False and p.response_time is not None]
        if rtts:
            self._rtt_estimate_s = (0.7 * self._rtt_estimate_s
                                    + 0.3 * float(np.mean(rtts)))

        judged = [p for p in self._pending if not p.outstanding]
        self._pending = [p for p in self._pending if p.outstanding]
        lost = sum(1 for p in judged if p.judged_lost)
        delays = [p.judged_at - p.send_time for p in judged
                  if p.judged_at is not None]
        return JudgedBurst(now, len(judged), lost,
                           float(np.mean(delays)) if delays else 0.0)

    @property
    def outstanding(self) -> int:
        return len(self._pending)
