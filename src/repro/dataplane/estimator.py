"""Link-state estimation and degradation detection.

`LinkStateEstimator` is the per-link state a gateway's monitoring module
keeps: EWMA latency/loss built from active probes and passive samples,
plus the hysteresis state machine that declares a link degraded after
`trigger_bursts` consecutive bad bursts and recovered after
`recover_bursts` consecutive good ones.  The same dynamics are provided
in vectorised form (`reaction_active_series`) for day-scale experiments.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.signal import lfilter

from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.probing import ProbeBurst


class LinkStateEstimator:
    """EWMA estimates + degradation detector for one directed link."""

    def __init__(self, monitoring: MonitoringConfig,
                 reaction: ReactionConfig):
        self.monitoring = monitoring
        self.reaction = reaction
        self.latency_ms: Optional[float] = None
        self.loss_rate: Optional[float] = None
        self._bad_run = 0
        self._good_run = 0
        self._degraded = False
        self.degradation_count = 0
        self.last_update: Optional[float] = None

    # ------------------------------------------------------------------ api
    @property
    def degraded(self) -> bool:
        return self._degraded

    def estimate(self) -> Tuple[float, float]:
        """Current (latency_ms, loss_rate); raises before any sample."""
        if self.latency_ms is None or self.loss_rate is None:
            raise RuntimeError("no samples ingested yet")
        return self.latency_ms, self.loss_rate

    def ingest_burst(self, burst: ProbeBurst) -> bool:
        """Update from an active probe burst; returns the degraded flag."""
        return self._ingest(burst.time, burst.latency_ms,
                            burst.loss_fraction)

    def ingest_passive(self, time: float, latency_ms: float,
                       loss_rate: float) -> bool:
        """Update from passive tracking of data packets."""
        return self._ingest(time, latency_ms, loss_rate)

    def apply_group_state(self, time: float, latency_ms: float,
                          loss_rate: float, degraded: bool) -> None:
        """Adopt the group-aggregated state (§4.1's group-based probing).

        Non-representative gateways do not probe; they receive the
        representatives' aggregated estimate and degradation verdict and
        adopt both wholesale (their own hysteresis counters reset so a
        later local signal starts fresh).
        """
        self.latency_ms = float(latency_ms)
        self.loss_rate = float(loss_rate)
        self.last_update = time
        if degraded and not self._degraded:
            self.degradation_count += 1
        self._degraded = bool(degraded)
        self._bad_run = 0
        self._good_run = 0

    # -------------------------------------------------------------- internal
    def _ingest(self, time: float, latency_ms: float,
                loss_rate: float) -> bool:
        alpha = self.monitoring.ewma_alpha
        if self.latency_ms is None:
            self.latency_ms = latency_ms
            self.loss_rate = loss_rate
        else:
            self.latency_ms += alpha * (latency_ms - self.latency_ms)
            self.loss_rate += alpha * (loss_rate - self.loss_rate)
        self.last_update = time

        # A burst is bad on an instantaneous spike (latency over the
        # bound, or several packets of the burst lost) or when the EWMA
        # loss shows sustained moderate loss that single bursts cannot
        # resolve at 15-packet granularity.
        bad = (latency_ms > self.reaction.latency_threshold_ms
               or loss_rate >= self.reaction.loss_threshold
               or (self.loss_rate is not None
                   and self.loss_rate >= self.reaction.ewma_loss_threshold))
        if bad:
            self._bad_run += 1
            self._good_run = 0
            if (not self._degraded
                    and self._bad_run >= self.reaction.trigger_bursts):
                self._degraded = True
                self.degradation_count += 1
        else:
            self._good_run += 1
            self._bad_run = 0
            if self._degraded and self._good_run >= self.reaction.recover_bursts:
                self._degraded = False
        return self._degraded


def reaction_active_series(latency_ms: np.ndarray, loss_fraction: np.ndarray,
                           reaction: ReactionConfig) -> np.ndarray:
    """Vectorised detector: per-burst boolean 'reaction active' flags.

    Mirrors `LinkStateEstimator`'s hysteresis: a trigger fires
    at the `trigger_bursts`-th consecutive bad burst, a recovery at the
    `recover_bursts`-th consecutive good burst, and the link is degraded
    between a trigger and the next recovery.

    Bursts run along the last axis; any leading axes (one row per link)
    are independent series detected in the same pass.
    """
    lat = np.asarray(latency_ms, dtype=float)
    loss = np.asarray(loss_fraction, dtype=float)
    if lat.shape != loss.shape:
        raise ValueError("latency and loss series must align")
    n = lat.shape[-1]
    if n == 0:
        return np.zeros(lat.shape, dtype=bool)
    # EWMA of burst loss (same recursion as LinkStateEstimator, modulo
    # the first-sample initialisation), done with an IIR filter so the
    # whole series vectorises.
    a = reaction.ewma_alpha
    ewma_loss = lfilter([a], [1.0, -(1.0 - a)], loss, axis=-1)
    bad = ((lat > reaction.latency_threshold_ms)
           | (loss >= reaction.loss_threshold)
           | (ewma_loss >= reaction.ewma_loss_threshold))

    k, m = reaction.trigger_bursts, reaction.recover_bursts
    trigger = _run_of(bad, k)
    recover = _run_of(~bad, m)

    # Last-event-wins: degraded iff the most recent trigger is more recent
    # than the most recent recovery.
    idx = np.arange(n)
    last_trigger = np.maximum.accumulate(np.where(trigger, idx, -1), axis=-1)
    last_recover = np.maximum.accumulate(np.where(recover, idx, -1), axis=-1)
    return last_trigger > last_recover


def _run_of(flags: np.ndarray, length: int) -> np.ndarray:
    """True where `flags` has just been true `length` times in a row
    (rolling all-true windows via cumulative sums, along the last axis)."""
    n = flags.shape[-1]
    out = np.zeros(flags.shape, dtype=bool)
    if n >= length:
        c = np.zeros(flags.shape[:-1] + (n + 1,), dtype=np.intp)
        np.cumsum(flags, axis=-1, out=c[..., 1:])
        out[..., length - 1:] = (c[..., length:] - c[..., :-length]) == length
    return out
