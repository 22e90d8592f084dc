"""Degradation-event timelines.

Temporary link degradations are the central phenomenon XRON's fast
reaction targets (§4.3, Fig. 9): short (<30 s) latency/loss excursions are
about two orders of magnitude more frequent than long ones.

A timeline is generated once per (link, direction, type) for the whole
simulation horizon, then compiled to piecewise-linear functions so
that "total added latency / loss at time t" is an O(log n) lookup and is
vectorised over time arrays.  Internally everything is numpy arrays; the
`DegradationEvent` dataclass view is materialised only on demand.  An
underlay's timelines are drawn link by link but finished and compiled
in one pass (`TimelineDraws`, `EventTimeline.batch`).
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

    Constructing one compiles a batch of one; `batch` compiles many
    timelines in one pass (`build_underlay`'s every link).
    """

    __slots__ = ("starts", "durations", "latency_adds", "loss_adds",
                 "horizon_s", "_times", "_lat_val", "_lat_slope",
                 "_loss_val", "_loss_slope")

    def __init__(self, starts: np.ndarray, durations: np.ndarray,
                 latency_adds: np.ndarray, loss_adds: np.ndarray,
                 horizon_s: float):
        events = [np.asarray(column, dtype=float) for column in
                  (starts, durations, latency_adds, loss_adds)]
        _compile_many([self], np.array([events[0].size]), *events,
                      horizon_s)

    @classmethod
    def batch(cls, counts: np.ndarray, starts: np.ndarray,
              durations: np.ndarray, latency_adds: np.ndarray,
              loss_adds: np.ndarray,
              horizon_s: float) -> List["EventTimeline"]:
        """One timeline per entry of `counts`, all over `horizon_s`:
        timeline ``k`` holds the next ``counts[k]`` events of the flat
        event arrays.  Each is what `EventTimeline(...)` of its own
        events builds, bit for bit; its arrays are rows of blocks
        shared with the timelines of the same event count."""
        timelines = [cls.__new__(cls) for __ in range(len(counts))]
        _compile_many(timelines, np.asarray(counts, dtype=np.intp), starts,
                      durations, latency_adds, loss_adds, horizon_s)
        return timelines

    @classmethod
    def from_events(cls, events: Sequence[DegradationEvent],
                    horizon_s: float) -> "EventTimeline":
        """Build from explicit event objects (tests, scripted scenarios)."""
        return cls(np.array([e.start for e in events]),
                   np.array([e.duration for e in events]),
                   np.array([e.latency_add_ms for e in events]),
                   np.array([e.loss_add for e in events]),
                   horizon_s)

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

    def pieces(self, t_first: float, t_last: float) -> Tuple[np.ndarray, ...]:
        """The linear pieces that cover ``[t_first, t_last]``, as views
        ``(t0, lat_val, lat_slope, loss_val, loss_slope)`` of the
        compiled arrays: the piece of `t_first`, of `t_last` and every
        one between.  An instant at or after ``t0[k]`` and before
        ``t0[k + 1]`` lies in piece ``k``, where the added latency is
        ``max(lat_val[k] + lat_slope[k] * (t - t0[k]), 0.0)`` — `_eval`'s
        operations on `_eval`'s operands — and the added loss likewise;
        one before ``t0[0]`` is before the timeline's first breakpoint
        (zero added), and a window that ends before it gets no pieces
        at all.  Two scalar searches, no copy (the snapshot layer's
        block passes)."""
        return self.cover(t_first, t_last)[0]

    def cover(self, t_first: float, t_last: float
              ) -> Tuple[Tuple[np.ndarray, ...], float]:
        """`pieces` of ``[t_first, t_last]``, and the breakpoint where
        the last of them ends (inf when none follows): the pieces hold
        up to that instant, whatever comes after `t_last`."""
        times = self._times
        stop = int(times.searchsorted(t_last, side="right"))
        lo = stop if t_first == t_last else int(
            times.searchsorted(t_first, side="right"))
        window = slice(max(lo - 1, 0), stop)
        return ((times[window], self._lat_val[window],
                 self._lat_slope[window], self._loss_val[window],
                 self._loss_slope[window]),
                float(times[stop]) if stop < times.size else np.inf)


def _compile_many(timelines: Sequence[EventTimeline], counts: np.ndarray,
                  starts: np.ndarray, durations: np.ndarray,
                  latency_adds: np.ndarray, loss_adds: np.ndarray,
                  horizon_s: float) -> None:
    """Compile `timelines`, whose events lie end to end in the flat
    event arrays, ``counts[k]`` for ``timelines[k]``: set each one's
    events sorted by start (stable), its breakpoint times, the
    latency / loss value at and slope after each breakpoint, and its
    horizon.

    Each event contributes a trapezoid (ramp up / hold / ramp down), so
    the sum is piecewise linear: a query is one searchsorted plus a
    linear term.  Timelines with the same event count form one dense
    block — no padding, so a long timeline never pays for a short one
    or the other way round — that is stable-argsorted and cumsum'd
    along its rows, which are the per-timeline operations in the same
    order.  A timeline without events is the zero function (one
    breakpoint at 0).
    """
    horizon_s = float(horizon_s)
    first = np.cumsum(counts) - counts
    by_count = np.argsort(counts, kind="stable")
    for members in np.split(by_count, np.flatnonzero(
            np.diff(counts[by_count])) + 1):
        if not members.size:
            continue
        n = int(counts[members[0]])
        if n == 0:
            none, zero = np.zeros(0), np.zeros(1)
            rows = [[none] * 4 + [zero] * 5] * members.size
        else:
            rows = zip(*_compile_block(first[members], n, starts,
                                       durations, latency_adds, loss_adds))
        for k, row in zip(members.tolist(), rows):
            timeline = timelines[k]
            (timeline.starts, timeline.durations, timeline.latency_adds,
             timeline.loss_adds, timeline._times, timeline._lat_val,
             timeline._lat_slope, timeline._loss_val,
             timeline._loss_slope) = row
            timeline.horizon_s = horizon_s


def _compile_block(first: np.ndarray, n: int, starts: np.ndarray,
                   durations: np.ndarray, latency_adds: np.ndarray,
                   loss_adds: np.ndarray) -> List[np.ndarray]:
    """The compiled arrays of the timelines whose `n` events each start
    at `first` in the flat event arrays, as blocks with one row per
    timeline: events (start, duration, latency, loss) sorted by start,
    then breakpoint times, latency value / slope, loss value / slope.

    A row-wise reorder is one flat gather (``order`` plus each row's
    offset into the raveled block), not `np.take_along_axis`."""
    first = first[:, None]
    at = first + np.arange(n)
    at = first + np.argsort(starts[at], axis=1, kind="stable")
    s, d = starts[at], durations[at]
    lat, loss = latency_adds[at], loss_adds[at]
    ramps = np.maximum(np.minimum(MAX_RAMP_S, RAMP_FRACTION * d), 1e-6)
    ends = s + d
    # Slope deltas at the four corners of each trapezoid.
    bounds = np.concatenate([s, s + ramps, ends - ramps, ends], axis=1)
    order = np.argsort(bounds, axis=1, kind="stable")
    order += np.arange(0, bounds.size, bounds.shape[1])[:, None]
    times = bounds.ravel()[order]
    gaps = np.diff(times, axis=1)
    block = [s, d, lat, loss, times]
    for peak in (lat, loss):
        up = peak / ramps
        slope = np.concatenate([up, -up, -up, up], axis=1).ravel()[order]
        np.cumsum(slope, axis=1, out=slope)
        value = np.zeros(slope.shape)
        np.cumsum(slope[:, :-1] * gaps, axis=1, out=value[:, 1:])
        block += [np.maximum(value, 0.0, out=value), slope]
    return block


class TimelineDraws:
    """Many links' degradation events: drawn link by link, each from its
    own generator in `generate_timeline`'s order (`draw`), then clipped,
    scaled and compiled for every link at once (`compile`).

    Two independent Poisson processes per link: frequent short events
    (exponential durations, mean < 30 s) and rare long events
    (lognormal durations shifted past 30 s).  Severities (added
    latency/loss) are lognormal and heavy-tailed, so rare events reach
    multi-second latency and tens of percent loss, as in Figs. 1b/2b.
    `start_offset` shifts all event times (used to continue a process
    across day-sized windows).
    """

    def __init__(self, horizon_s: float, start_offset: float = 0.0):
        if horizon_s <= 0:
            raise ValueError(f"horizon must be positive, got {horizon_s}")
        self.horizon_s = horizon_s
        self.start_offset = start_offset
        #: Per link, short then long: event counts, and the raw draws of
        #: the processes that have events (after one empty array each).
        self._counts: List[int] = []
        self._starts: List[np.ndarray] = [np.zeros(0)]
        self._durations: List[np.ndarray] = [np.zeros(0)]
        self._latency: List[np.ndarray] = [np.zeros(0)]
        self._loss: List[np.ndarray] = [np.zeros(0)]
        #: Per link, the severity scale of its events.
        self._severity: List[float] = []

    def draw(self, rng: np.random.Generator, *,
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
             severity_scale: float = 1.0) -> None:
        """Draw the next link's events from `rng`.

        An event start is ``uniform(0, horizon_s)``, which is
        ``0.0 + horizon_s * random()`` in numpy's own arithmetic; the
        sum with zero rounds nothing, so scaling `random` draws the same
        bits without `uniform`'s per-call argument checks.  A draw of no
        values takes nothing from the stream, so a process without
        events skips its four."""
        horizon_s = self.horizon_s
        days = horizon_s / 86400.0
        n_short = rng.poisson(short_events_per_day * rate_scale * days)
        if n_short:
            self._starts.append(horizon_s * rng.random(n_short))
            self._durations.append(
                rng.exponential(short_duration_mean_s, size=n_short))
            self._latency.append(rng.lognormal(
                event_latency_mu, event_latency_sigma, size=n_short))
            self._loss.append(rng.lognormal(
                event_loss_mu, event_loss_sigma, size=n_short))

        n_long = rng.poisson(long_events_per_day * rate_scale * days)
        if n_long:
            self._starts.append(horizon_s * rng.random(n_long))
            self._durations.append(rng.lognormal(
                long_duration_mu, long_duration_sigma, size=n_long))
            self._latency.append(rng.lognormal(
                event_latency_mu + 0.5, event_latency_sigma, size=n_long))
            self._loss.append(rng.lognormal(
                event_loss_mu + 0.5, event_loss_sigma, size=n_long))

        self._counts += (n_short, n_long)
        self._severity.append(severity_scale)

    def compile(self) -> List[EventTimeline]:
        """Every drawn link's timeline, in draw order: short durations
        capped under 30 s, long ones shifted past it, severities
        scaled and capped, events shifted by `start_offset`, each
        link's short events before its long ones."""
        counts = np.array(self._counts, dtype=np.intp).reshape(-1, 2)
        per_event = counts.ravel()
        is_long = np.repeat(np.tile([False, True], len(counts)), per_event)
        severity = np.repeat(np.array(self._severity, dtype=float),
                             counts.sum(axis=1))
        durations = np.concatenate(self._durations)
        durations = np.where(is_long, 30.0 + durations,
                             np.minimum(durations, 29.9))
        latency = np.minimum(np.concatenate(self._latency) * severity,
                             MAX_EVENT_LATENCY_MS)
        loss = np.minimum(np.concatenate(self._loss) * severity, 0.95)
        return EventTimeline.batch(
            counts.sum(axis=1),
            np.concatenate(self._starts) + self.start_offset, durations,
            latency, loss, self.horizon_s + self.start_offset)


def generate_timeline(rng: np.random.Generator, horizon_s: float, *,
                      start_offset: float = 0.0,
                      **events) -> EventTimeline:
    """Draw a degradation timeline for one directed link: a
    `TimelineDraws` of one link (its `draw` takes the `events`
    keywords)."""
    draws = TimelineDraws(horizon_s, start_offset)
    draws.draw(rng, **events)
    return draws.compile()[0]
