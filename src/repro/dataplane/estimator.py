"""Link-state estimation and degradation detection.

`EstimatorBank` is the monitoring state a gateway keeps for its adjacent
links, as a struct of arrays: EWMA latency/loss built from active probes
and passive samples, plus the hysteresis state machine that declares a
link degraded after `trigger_bursts` consecutive bad bursts and
recovered after `recover_bursts` consecutive good ones.  Its one update
routine, `ingest`, serves a probing round (every probed link of every
representative of a cluster in one call), a passive flush and a single
sample alike; `adopt` is the group-state hand-over of §4.1.
`LinkStateEstimator` is the read-only view of one link of a gateway's
bank.  The same dynamics are provided over a time axis
(`reaction_active_series`) for day-scale experiments; its loss EWMA is
`scipy.signal.lfilter`, which only the grid engine needs, so the filter
is imported by `load_filter` (an `EpochSimulator` with fast reaction
calls it when it is built) rather than with this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dataplane.config import MonitoringConfig, ReactionConfig

#: `scipy.signal.lfilter` once `load_filter` has imported it.
_lfilter = None

#: The state arrays of an `EstimatorBank` and what a fresh link holds
#: (NaN: no sample yet).
_STATE = {"latency_ms": np.nan, "loss_rate": np.nan, "last_update": np.nan,
          "bad_run": 0, "good_run": 0, "degraded": False,
          "degradation_count": 0}


class EstimatorBank:
    """EWMA estimates + degradation detectors of many links at once.

    Every state array has the bank's shape — ``(links,)`` for a gateway,
    ``(gateways, links)`` for a cluster's block — and the update
    routines take any numpy index into that shape, so one call updates
    one link, some links of a gateway or the same links of several
    gateways.
    """

    __slots__ = ("monitoring", "reaction") + tuple(_STATE)

    def __init__(self, shape, monitoring: MonitoringConfig,
                 reaction: ReactionConfig):
        self.monitoring = monitoring
        self.reaction = reaction
        for name, fresh in _STATE.items():
            setattr(self, name, np.full(shape, fresh))

    @classmethod
    def stacked(cls, banks: Sequence["EstimatorBank"]) -> "EstimatorBank":
        """A block holding a copy of `banks`' state, one row each; every
        bank then becomes its row (a view: the block and the bank are
        one state from here on, whoever writes)."""
        block = cls((0,), banks[0].monitoring, banks[0].reaction)
        for name in _STATE:
            rows = np.stack([getattr(bank, name) for bank in banks])
            setattr(block, name, rows)
            for bank, row in zip(banks, rows):
                setattr(bank, name, row)
        return block

    def ingest(self, links, time: float, latency_ms, loss_rate) -> None:
        """Fold one sample per link of `links` into the estimates and
        step the detectors (an active burst or a passive window: the
        monitoring module treats both alike)."""
        alpha = self.monitoring.ewma_alpha
        reaction = self.reaction
        ewma_lat = self.latency_ms[links]
        ewma_loss = self.loss_rate[links]
        fresh = np.isnan(ewma_lat)
        ewma_loss = np.where(
            fresh, loss_rate, ewma_loss + alpha * (loss_rate - ewma_loss))
        self.latency_ms[links] = np.where(
            fresh, latency_ms, ewma_lat + alpha * (latency_ms - ewma_lat))
        self.loss_rate[links] = ewma_loss
        self.last_update[links] = time

        # A burst is bad on an instantaneous spike (latency over the
        # bound, or several packets of the burst lost) or when the EWMA
        # loss shows sustained moderate loss that single bursts cannot
        # resolve at 15-packet granularity.
        bad = ((latency_ms > reaction.latency_threshold_ms)
               | (loss_rate >= reaction.loss_threshold)
               | (ewma_loss >= reaction.ewma_loss_threshold))
        bad_run = np.where(bad, self.bad_run[links] + 1, 0)
        good_run = np.where(bad, 0, self.good_run[links] + 1)
        self.bad_run[links] = bad_run
        self.good_run[links] = good_run
        degraded = self.degraded[links]
        flipped = np.where(degraded, good_run >= reaction.recover_bursts,
                           bad_run >= reaction.trigger_bursts)
        if flipped.any():
            self.degradation_count[links] += flipped & ~degraded
            self.degraded[links] = degraded ^ flipped

    def adopt(self, links, time: float, latency_ms, loss_rate,
              degraded) -> None:
        """Adopt the group-aggregated state (§4.1's group-based probing).

        Non-representative gateways do not probe; they receive the
        representatives' aggregated estimate and degradation verdict and
        adopt both wholesale (their own hysteresis counters reset so a
        later local signal starts fresh).
        """
        self.latency_ms[links] = latency_ms
        self.loss_rate[links] = loss_rate
        self.last_update[links] = time
        if degraded.any():
            self.degradation_count[links] += degraded & ~self.degraded[links]
        self.degraded[links] = degraded
        self.bad_run[links] = 0
        self.good_run[links] = 0


class LinkStateEstimator:
    """The state of link `link` of a one-dimensional `bank`: each field
    (`latency_ms`, `degraded`, ...) as a plain Python value, None while
    there is no sample yet."""

    def __init__(self, bank: EstimatorBank, link: int):
        self._bank = bank
        self._link = link

    def __getattr__(self, name: str):
        if name not in _STATE:
            raise AttributeError(name)
        value = getattr(self._bank, name)[self._link].item()
        return None if value != value else value


def load_filter():
    """Import the IIR filter `reaction_active_series` runs (importing
    `scipy.signal` takes about a second and tens of MB, which nothing
    but the detector should pay); later calls return it at once."""
    global _lfilter
    if _lfilter is None:
        from scipy.signal import lfilter
        _lfilter = lfilter
    return _lfilter


def reaction_active_series(latency_ms: np.ndarray, loss_fraction: np.ndarray,
                           reaction: ReactionConfig,
                           monitoring: MonitoringConfig) -> np.ndarray:
    """Vectorised detector: per-burst boolean 'reaction active' flags.

    Mirrors `EstimatorBank`'s hysteresis: a trigger fires
    at the `trigger_bursts`-th consecutive bad burst, a recovery at the
    `recover_bursts`-th consecutive good burst, and the link is degraded
    between a trigger and the next recovery.  The loss EWMA smooths with
    `monitoring.ewma_alpha`, the bank's factor.

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
    # EWMA of burst loss (same recursion as EstimatorBank, modulo
    # the first-sample initialisation), done with an IIR filter so the
    # whole series vectorises.
    a = monitoring.ewma_alpha
    ewma_loss = load_filter()([a], [1.0, -(1.0 - a)], loss, axis=-1)
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
