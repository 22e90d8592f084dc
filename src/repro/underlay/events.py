"""Degradation-event timelines.

Temporary link degradations are the central phenomenon XRON's fast
reaction targets (§4.3, Fig. 9): short (<30 s) latency/loss excursions are
about two orders of magnitude more frequent than long ones.

A timeline is generated once per (link, direction, type) for the whole
simulation horizon, then compiled to piecewise-constant step functions so
that "total added latency / loss at time t" is an O(log n) lookup and is
vectorised over time arrays.  Internally everything is numpy arrays; the
`DegradationEvent` dataclass view is materialised only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: Added latency is capped here: the worst spike the paper reports is
#: ~20.5 s (Fig. 1b), so we do not generate multi-minute outliers.
MAX_EVENT_LATENCY_MS = 12000.0


#: Degradations ramp up/down over at most this long: congestion builds and
#: drains over seconds rather than stepping instantaneously.  The ramp is
#: what gives fast reaction a chance to fire *before* peak severity.
MAX_RAMP_S = 3.0
#: Fraction of an event's duration spent ramping (each side), capped by
#: MAX_RAMP_S.
RAMP_FRACTION = 0.35


@dataclass(frozen=True)
class DegradationEvent:
    """One degradation episode on a directed link.

    Severity rises linearly from 0 to the peak over the ramp, holds, and
    falls back linearly over the tail ramp.
    """

    start: float
    duration: float
    #: Peak latency added, ms.
    latency_add_ms: float
    #: Peak loss rate added, fraction in [0, 1].
    loss_add: float


class EventTimeline:
    """Compiled step functions over a set of possibly-overlapping events.

    At any time the added latency/loss is the *sum* over active events;
    overlapping degradations compound, which matches how concurrent
    congestion episodes stack in measurements.
    """

    def __init__(self, starts: np.ndarray, durations: np.ndarray,
                 latency_adds: np.ndarray, loss_adds: np.ndarray,
                 horizon_s: float):
        order = np.argsort(starts, kind="stable")
        self.starts = np.asarray(starts, dtype=float)[order]
        self.durations = np.asarray(durations, dtype=float)[order]
        self.latency_adds = np.asarray(latency_adds, dtype=float)[order]
        self.loss_adds = np.asarray(loss_adds, dtype=float)[order]
        self.horizon_s = float(horizon_s)
        self._compile()

    @classmethod
    def from_events(cls, events: Sequence[DegradationEvent],
                    horizon_s: float) -> "EventTimeline":
        """Build from explicit event objects (tests, scripted scenarios)."""
        return cls(np.array([e.start for e in events]),
                   np.array([e.duration for e in events]),
                   np.array([e.latency_add_ms for e in events]),
                   np.array([e.loss_add for e in events]),
                   horizon_s)

    def _compile(self) -> None:
        """Compile the summed piecewise-linear severity functions.

        Each event contributes a trapezoid (ramp up / hold / ramp down).
        The sum of trapezoids is piecewise linear; we store breakpoint
        times, the value at each breakpoint, and the slope after it, so a
        query is one searchsorted plus a linear term.
        """
        n = len(self.starts)
        if n == 0:
            self._times = np.array([0.0])
            self._lat_val = np.array([0.0])
            self._lat_slope = np.array([0.0])
            self._loss_val = np.array([0.0])
            self._loss_slope = np.array([0.0])
            return
        ramps = np.minimum(MAX_RAMP_S, RAMP_FRACTION * self.durations)
        ramps = np.maximum(ramps, 1e-6)
        ends = self.starts + self.durations
        # Slope deltas at the four corners of each trapezoid.
        bounds = np.concatenate([self.starts, self.starts + ramps,
                                 ends - ramps, ends])
        up = self.latency_adds / ramps
        up_l = self.loss_adds / ramps
        lat_slope_delta = np.concatenate([up, -up, -up, up])
        loss_slope_delta = np.concatenate([up_l, -up_l, -up_l, up_l])
        order = np.argsort(bounds, kind="stable")
        times = bounds[order]
        lat_slope = np.cumsum(lat_slope_delta[order])
        loss_slope = np.cumsum(loss_slope_delta[order])
        lat_val = np.concatenate([[0.0], np.cumsum(lat_slope[:-1]
                                                   * np.diff(times))])
        loss_val = np.concatenate([[0.0], np.cumsum(loss_slope[:-1]
                                                    * np.diff(times))])
        self._times = times
        self._lat_val = np.maximum(lat_val, 0.0)
        self._lat_slope = lat_slope
        self._loss_val = np.maximum(loss_val, 0.0)
        self._loss_slope = loss_slope

    # ------------------------------------------------------------------ api
    def __len__(self) -> int:
        return len(self.starts)

    @property
    def events(self) -> List[DegradationEvent]:
        """Materialised event objects (diagnostics; O(n) to build)."""
        return [DegradationEvent(float(s), float(d), float(la), float(lo))
                for s, d, la, lo in zip(self.starts, self.durations,
                                        self.latency_adds, self.loss_adds)]

    def latency_add(self, t) -> np.ndarray:
        """Added latency (ms) at time(s) `t` (piecewise linear)."""
        return self._eval(t, self._lat_val, self._lat_slope)

    def loss_add(self, t) -> np.ndarray:
        """Added loss rate at time(s) `t` (piecewise linear)."""
        return self._eval(t, self._loss_val, self._loss_slope)

    def _eval(self, t, values: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        tt = np.asarray(t, dtype=float)
        idx = np.searchsorted(self._times, tt, side="right") - 1
        safe = np.maximum(idx, 0)
        out = values[safe] + slopes[safe] * (tt - self._times[safe])
        out = np.where(idx >= 0, out, 0.0)
        return np.maximum(out, 0.0)

    def segment(self, t: float) -> Tuple[float, ...]:
        """The linear piece covering instant `t`, as ``(lo, hi, t0,
        lat_val, lat_slope, loss_val, loss_slope)``.

        For every instant in ``[lo, hi)`` the added latency is
        ``max(lat_val + lat_slope * (t - t0), 0.0)`` — `_eval`'s
        operations on `_eval`'s operands — and the added loss likewise;
        before the first breakpoint the piece is the zero function.  One
        binary search serves both series and every later instant of the
        piece (the snapshot layer's segment memo).
        """
        times = self._times
        idx = int(np.searchsorted(times, t, side="right")) - 1
        if idx < 0:
            return (-np.inf, times[0], 0.0, 0.0, 0.0, 0.0, 0.0)
        hi = times[idx + 1] if idx + 1 < len(times) else np.inf
        return (times[idx], hi, times[idx], self._lat_val[idx],
                self._lat_slope[idx], self._loss_val[idx],
                self._loss_slope[idx])

    def pieces(self, t_first: float, t_last: float) -> Tuple[np.ndarray, ...]:
        """The linear pieces that cover ``[t_first, t_last]``, as views
        ``(t0, lat_val, lat_slope, loss_val, loss_slope)`` of the
        compiled arrays: `segment`'s piece of `t_first`, of `t_last`
        and every one between.  An instant at or after ``t0[k]`` and
        before ``t0[k + 1]`` lies in piece ``k``; one before ``t0[0]``
        is before the timeline's first breakpoint (zero added), and a
        window that ends before it gets no pieces at all.  Two scalar
        searches, no copy (the snapshot layer's block pass)."""
        times = self._times
        lo = max(int(times.searchsorted(t_first, side="right")) - 1, 0)
        window = slice(lo, int(times.searchsorted(t_last, side="right")))
        return (times[window], self._lat_val[window],
                self._lat_slope[window], self._loss_val[window],
                self._loss_slope[window])


def generate_timeline(rng: np.random.Generator, horizon_s: float, *,
                      short_events_per_day: float,
                      long_events_per_day: float,
                      short_duration_mean_s: float,
                      long_duration_mu: float,
                      long_duration_sigma: float,
                      event_latency_mu: float,
                      event_latency_sigma: float,
                      event_loss_mu: float,
                      event_loss_sigma: float,
                      rate_scale: float = 1.0,
                      severity_scale: float = 1.0,
                      start_offset: float = 0.0) -> EventTimeline:
    """Draw a degradation timeline for one directed link.

    Two independent Poisson processes: frequent short events (exponential
    durations, mean < 30 s) and rare long events (lognormal durations
    shifted past 30 s).  Severities (added latency/loss) are lognormal and
    heavy-tailed, so rare events reach multi-second latency and tens of
    percent loss, as in Figs. 1b/2b.  `start_offset` shifts all event times
    (used to continue a process across day-sized windows).
    """
    if horizon_s <= 0:
        raise ValueError(f"horizon must be positive, got {horizon_s}")
    days = horizon_s / 86400.0

    n_short = rng.poisson(short_events_per_day * rate_scale * days)
    s_starts = rng.uniform(0.0, horizon_s, size=n_short)
    s_durations = np.minimum(
        rng.exponential(short_duration_mean_s, size=n_short), 29.9)
    s_lat = np.minimum(
        rng.lognormal(event_latency_mu, event_latency_sigma, size=n_short)
        * severity_scale, MAX_EVENT_LATENCY_MS)
    s_loss = np.minimum(
        rng.lognormal(event_loss_mu, event_loss_sigma, size=n_short)
        * severity_scale, 0.95)

    n_long = rng.poisson(long_events_per_day * rate_scale * days)
    l_starts = rng.uniform(0.0, horizon_s, size=n_long)
    l_durations = 30.0 + rng.lognormal(long_duration_mu, long_duration_sigma,
                                       size=n_long)
    l_lat = np.minimum(
        rng.lognormal(event_latency_mu + 0.5, event_latency_sigma,
                      size=n_long) * severity_scale, MAX_EVENT_LATENCY_MS)
    l_loss = np.minimum(
        rng.lognormal(event_loss_mu + 0.5, event_loss_sigma, size=n_long)
        * severity_scale, 0.95)

    return EventTimeline(
        np.concatenate([s_starts, l_starts]) + start_offset,
        np.concatenate([s_durations, l_durations]),
        np.concatenate([s_lat, l_lat]),
        np.concatenate([s_loss, l_loss]),
        horizon_s + start_offset)
