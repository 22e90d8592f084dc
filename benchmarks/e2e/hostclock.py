"""Wall and CPU time of a region, and how disturbed the host was meanwhile.

The reference box is a shared 2-core VM.  Nothing inside it shows why,
but a fixed 0.4 ms loop takes its best time or up to 1.7x that from one
call to the next, and the share of slow calls drifts between a tenth
and all of them for seconds to minutes (README, "Steadiness").  A
`Stopwatch` therefore samples a fixed loop (`speed_kernel`) on an
interval timer all through the region it times, keeps the samples' own
time out of what it reports, and hands the samples back, so that the
host-time metrics can be stated in *undisturbed seconds*: what the
region would have taken had every sample run at the loop's best time.

This module imports nothing of the program: the worker starts its
stopwatch before the program's imports, which are part of ``setup_s``.
"""

from __future__ import annotations

import json
import signal
import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: The best time `speed_kernel` reaches on the reference box.  A constant,
#: not the best of a run's own samples: a run can pass without one
#: undisturbed sample (two of ten did), and then reads as faster than it was.
REFERENCE_KERNEL_S = 0.00036
#: Seconds between samples: ~2 % of the run goes to ~25 samples a second.
SAMPLE_INTERVAL_S = 0.04


def speed_kernel() -> float:
    """Seconds a fixed loop takes right now: scalar numpy calls, and
    small dicts built, serialised and parsed.

    Scalar numpy in a Python loop is what probing and link evaluation
    are made of (`LinkProcess`, `hash_noise`, `np.median` on two
    values); object churn is the rest of the engines.  Of the loops
    tried (README, "Steadiness") this pair tracked the four workloads
    best."""
    start = time.perf_counter()
    for i in range(350):
        float(np.exp(np.asarray(0.001 * i, dtype=float)) * 1.0001)
    for i in range(30):
        json.loads(json.dumps({"kind": "probe", "t": 0.5 * i, "src": "HGH",
                               "dst": "IAD", "lat": [1.0 * i, 2.0], "n": i}))
    return time.perf_counter() - start


def host_speed(kernel_s: Sequence[float]) -> float:
    """Speed of the host over a region relative to the reference box
    undisturbed (1.0 = every sample took `REFERENCE_KERNEL_S`; 0.7 = the
    region took 1/0.7 times as long as it would have).

    The samples are spread evenly over the region's *time*, so the work
    an undisturbed host would have done in that time is proportional to
    the mean of the sampled speeds, 1 / kernel seconds."""
    return REFERENCE_KERNEL_S * sum(1.0 / k for k in kernel_s) / len(kernel_s)


@dataclass
class Reading:
    """What a `Stopwatch` measured: the host's own seconds (samples
    excluded) and the speed samples taken meanwhile."""

    wall_s: float
    cpu_s: float
    kernel_s: List[float]

    @property
    def speed(self) -> float:
        return host_speed(self.kernel_s)


class Stopwatch:
    """Times the regions it is entered around (a ``with`` block, any
    number of times) and samples `speed_kernel` while inside.

    ``SIGALRM`` from an interval timer runs the sample on the main
    thread between two bytecodes of whatever is being timed; the handler
    touches nothing but this object.  `now` is a clock that stands still
    during samples, for spans that are open across one.
    """

    def __init__(self) -> None:
        self._wall_s = 0.0
        self._cpu_s = 0.0
        self._kernel_s: List[float] = []
        self._sampling_wall_s = 0.0
        self._sampling_cpu_s = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._sampling_wall_s

    def _cpu_now(self) -> float:
        return time.process_time() - self._sampling_cpu_s

    def _sample(self, signum=None, frame=None) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self._kernel_s.append(speed_kernel())
        self._sampling_wall_s += time.perf_counter() - wall0
        self._sampling_cpu_s += time.process_time() - cpu0

    def __enter__(self) -> "Stopwatch":
        self._sample()  # a region shorter than the interval still has one
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        self._wall0, self._cpu0 = self.now(), self._cpu_now()
        return self

    def __exit__(self, *exc) -> None:
        wall1, cpu1 = self.now(), self._cpu_now()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._wall_s += wall1 - self._wall0
        self._cpu_s += cpu1 - self._cpu0

    def take(self) -> Reading:
        """Everything measured since the last `take`."""
        reading = Reading(self._wall_s, self._cpu_s, self._kernel_s)
        self._wall_s = self._cpu_s = 0.0
        self._kernel_s = []
        return reading
