"""Event-queue simulation engine.

A `Simulator` owns a virtual clock (seconds, float) and a priority queue of
`Event` objects.  Callbacks schedule further events, which is how periodic
processes (probe bursts, controller epochs) are expressed.

The engine guarantees deterministic ordering: events are ordered by
(time, priority, sequence number), where the sequence number is the order
of scheduling.  Two events scheduled for the same instant therefore fire in
the order they were created, regardless of hash randomisation or heap
internals.  A scheduled event always fires: nothing is cancelled, and a
run ends when its driver stops stepping.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, NamedTuple, Optional


class SimulationError(RuntimeError):
    """Raised for invalid use of the simulation engine."""


class Event(NamedTuple):
    """A scheduled callback.

    Events compare as tuples, by (time, priority, seq) — `seq` is
    unique, so the callback is never compared — and the heap pops them
    in a deterministic order, with no Python-level comparison.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None]


class Simulator:
    """Discrete-event simulator with a float clock in seconds."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None],
                 priority: int = 0) -> Event:
        """Schedule `callback` to run `delay` seconds from now.

        A negative delay is an error: the past cannot be scheduled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, priority)

    def schedule_at(self, time: float, callback: Callable[[], None],
                    priority: int = 0) -> Event:
        """Schedule `callback` at absolute virtual time `time`."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}")
        event = Event(float(time), priority, next(self._seq), callback)
        heapq.heappush(self._queue, event)
        return event

    def next_time(self) -> Optional[float]:
        """Time of the earliest event, or None when nothing is queued."""
        queue = self._queue
        return queue[0].time if queue else None

    def step(self) -> bool:
        """Fire the earliest event; False when nothing is queued.

        The one pop-and-fire step every driver shares: the clock moves
        to the event's time, the event is counted, its callback runs.
        Re-entrant calls (stepping the simulator from inside a callback)
        are rejected because they would corrupt the clock.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if self.next_time() is None:
            return False
        event = heapq.heappop(self._queue)
        self._now = event.time
        self._events_processed += 1
        self._running = True
        try:
            event.callback()
        finally:
            self._running = False
        return True

    def run_until(self, end_time: float) -> None:
        """Process events with time <= end_time, then set the clock there.

        Re-entrant calls (running the simulator from inside a callback) are
        rejected because they would corrupt the clock.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        while True:
            t_next = self.next_time()
            if t_next is None or t_next > end_time:
                break
            self.step()
        if end_time > self._now:
            self._now = end_time

    def every(self, interval: float, callback: Callable[[], None],
              start_delay: float = 0.0, priority: int = 0) -> "PeriodicTask":
        """Run `callback` every `interval` seconds for as long as the
        simulator is stepped."""
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        task = PeriodicTask(self, interval, callback, priority)
        task.start(start_delay)
        return task


class PeriodicTask:
    """A self-rescheduling periodic callback."""

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[[], None], priority: int = 0):
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._priority = priority
        self._started = False
        self.fire_count = 0

    def start(self, delay: float = 0.0) -> None:
        if self._started:
            raise SimulationError("periodic task already started")
        self._started = True
        self._sim.schedule(delay, self._fire, self._priority)

    def _fire(self) -> None:
        self.fire_count += 1
        self._callback()
        self._sim.schedule(self._interval, self._fire, self._priority)
