"""Event-queue simulation engine.

A `Simulator` owns a virtual clock (seconds, float) and a priority queue of
`Event` objects.  Callbacks schedule further events, which is how periodic
processes (probe bursts, controller epochs) are expressed.

The engine guarantees deterministic ordering: events are ordered by
(time, priority, sequence number), where the sequence number is the order
of scheduling.  Two events scheduled for the same instant therefore fire in
the order they were created, regardless of hash randomisation or heap
internals.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional


class SimulationError(RuntimeError):
    """Raised for invalid use of the simulation engine."""


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events compare by (time, priority, seq) so the heap pops them in a
    deterministic order.  `cancelled` events stay in the heap but are
    skipped when popped, which is cheaper than heap removal.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


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

    @property
    def pending(self) -> int:
        """Number of live (not cancelled) events still queued."""
        return sum(1 for e in self._queue if not e.cancelled)

    def schedule(self, delay: float, callback: Callable[[], None],
                 priority: int = 0) -> Event:
        """Schedule `callback` to run `delay` seconds from now.

        A negative delay is an error: the past cannot be scheduled.
        Returns the `Event`, which the caller may `cancel()`.
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
        event = Event(time=float(time), priority=priority,
                      seq=next(self._seq), callback=callback)
        heapq.heappush(self._queue, event)
        return event

    def next_time(self) -> Optional[float]:
        """Time of the earliest live event, or None when nothing is queued.

        Cancelled events at the head of the queue are discarded here, so
        the time returned is the one `step()` will advance the clock to.
        """
        queue = self._queue
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
        return queue[0].time if queue else None

    def step(self) -> bool:
        """Fire the earliest live event; False when nothing is queued.

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

    def run(self) -> None:
        """Process every queued event (and those they schedule)."""
        while self.step():
            pass

    def every(self, interval: float, callback: Callable[[], None],
              start_delay: float = 0.0, priority: int = 0,
              jitter: Optional[Callable[[], float]] = None) -> "PeriodicTask":
        """Run `callback` every `interval` seconds until stopped.

        `jitter`, if given, is called before each rescheduling and its
        return value is added to the interval (it may be negative but the
        effective delay is clamped at zero).
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        task = PeriodicTask(self, interval, callback, priority, jitter)
        task.start(start_delay)
        return task


class PeriodicTask:
    """A self-rescheduling periodic callback. Stop with `stop()`."""

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[[], None], priority: int = 0,
                 jitter: Optional[Callable[[], float]] = None):
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._priority = priority
        self._jitter = jitter
        self._event: Optional[Event] = None
        self._stopped = True
        self.fire_count = 0

    @property
    def stopped(self) -> bool:
        return self._stopped

    def start(self, delay: float = 0.0) -> None:
        if not self._stopped:
            raise SimulationError("periodic task already started")
        self._stopped = False
        self._event = self._sim.schedule(delay, self._fire, self._priority)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fire_count += 1
        self._callback()
        if self._stopped:  # callback may have stopped us
            return
        delay = self._interval
        if self._jitter is not None:
            delay = max(0.0, delay + self._jitter())
        self._event = self._sim.schedule(delay, self._fire, self._priority)
