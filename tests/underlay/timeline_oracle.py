"""The scalar reference of degradation timelines: one timeline drawn and
compiled on its own, as `repro.underlay.events` did before timelines
were finished and compiled in one batched pass.

`ScalarTimeline` sorts one timeline's events and runs the per-timeline
compile; `scalar_generate_timeline` is the per-link generator with its
clips, scaling and concatenation per call.  Both are kept verbatim as
the oracle the batched compile (`EventTimeline.batch`, `TimelineDraws`)
must match bit for bit (`tests/underlay/test_timeline_batch.py`).
"""

from __future__ import annotations

import numpy as np

from repro.underlay.events import (MAX_EVENT_LATENCY_MS, MAX_RAMP_S,
                                   RAMP_FRACTION, EventTimeline)


def segment(timeline, t: float):
    """The linear piece of `timeline` covering instant `t`, as ``(lo,
    hi, t0, lat_val, lat_slope, loss_val, loss_slope)``: one scalar
    search, what the snapshot layer's segment memo ran per link that
    left its piece before the memo moved links by breakpoint
    (`LinkTable.timeline_block`).

    For every instant in ``[lo, hi)`` the added latency is
    ``max(lat_val + lat_slope * (t - t0), 0.0)``, and the added loss
    likewise; before the first breakpoint the piece is the zero
    function.
    """
    times = timeline._times
    idx = int(np.searchsorted(times, t, side="right")) - 1
    if idx < 0:
        return (-np.inf, times[0], 0.0, 0.0, 0.0, 0.0, 0.0)
    hi = times[idx + 1] if idx + 1 < len(times) else np.inf
    return (times[idx], hi, times[idx], timeline._lat_val[idx],
            timeline._lat_slope[idx], timeline._loss_val[idx],
            timeline._loss_slope[idx])


class ScalarTimeline:
    """One timeline, compiled per timeline; reads (`pieces`, `cover`,
    `latency_add`, `loss_add`) are `EventTimeline`'s own."""

    pieces = EventTimeline.pieces
    cover = EventTimeline.cover
    latency_add = EventTimeline.latency_add
    loss_add = EventTimeline.loss_add
    _eval = EventTimeline._eval

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


def scalar_generate_timeline(rng: np.random.Generator, horizon_s: float, *,
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
                             severity_scale: float = 1.0) -> ScalarTimeline:
    """Draw a degradation timeline for one directed link."""
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

    return ScalarTimeline(
        np.concatenate([s_starts, l_starts]),
        np.concatenate([s_durations, l_durations]),
        np.concatenate([s_lat, l_lat]),
        np.concatenate([s_loss, l_loss]),
        horizon_s)
