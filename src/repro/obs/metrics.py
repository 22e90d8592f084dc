"""Metrics primitives: counters, gauges, fixed-bucket histograms.

The registry is deliberately minimal — a flat namespace of named metric
objects cheap enough to update from the simulators' hot loops:

* `Counter.inc` and `Gauge.set` are one float operation;
* `Histogram.observe` is one `bisect` over a short tuple of bucket
  upper bounds (fixed at creation, Prometheus-style cumulative buckets
  when snapshotted);
* when telemetry is disabled the facade hands out shared *null* metric
  instances whose update methods are no-ops, so call sites can hold a
  handle unconditionally (see `repro.obs.Telemetry`).

Metric names are dotted strings (`"pathcontrol.graph_rebuilds"`).  The
registry enforces one type per name — re-requesting an existing name
with a different type (or different histogram buckets) is a programming
error and raises.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple, Union


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc by {amount})")
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-write-wins value."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram (upper-bound buckets plus +Inf overflow)."""

    __slots__ = ("name", "bounds", "counts", "overflow", "total", "sum",
                 "min", "max")
    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float]):
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError(f"histogram {name} needs strictly increasing "
                             f"bucket bounds, got {buckets!r}")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        i = bisect_left(self.bounds, value)
        if i < len(self.counts):
            self.counts[i] += 1
        else:
            self.overflow += 1
        self.total += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def snapshot(self) -> Dict[str, object]:
        cumulative = []
        seen = 0
        for bound, count in zip(self.bounds, self.counts):
            seen += count
            cumulative.append([bound, seen])
        return {"kind": self.kind, "count": self.total,
                "sum": self.sum, "mean": self.mean,
                "min": self.min if self.total else 0.0,
                "max": self.max if self.total else 0.0,
                "buckets": cumulative, "overflow": self.overflow}


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Flat get-or-create store of named metrics."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        #: Bumped on every `reset()`.  Hot loops that cache metric
        #: handles on their own instances compare this to detect that
        #: the registry was cleared underneath them and re-fetch.
        self.generation = 0

    def _get_or_create(self, name: str, cls, *args) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}, requested {cls.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, buckets: Sequence[float]) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, buckets)
            self._metrics[name] = metric
        elif type(metric) is not Histogram:
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}, requested histogram")
        elif tuple(buckets) != metric.bounds:
            raise ValueError(f"histogram {name!r} already registered with "
                             f"buckets {metric.bounds}")
        return metric

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready view of every metric, keyed by name."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}

    def reset(self) -> None:
        self._metrics.clear()
        self.generation += 1


class HotCounters:
    """Generation-aware cache of counter handles for hot loops.

    Re-resolving counters by name on every iteration of an inner loop
    costs more than the increments themselves.  Construct one of these
    (module- or instance-level) with the counter names, then call
    `fetch(registry)` inside the ``enabled`` guard: it returns the
    cached handle tuple, re-resolving only when the registry's
    `generation` shows it was reset underneath the cache.
    """

    __slots__ = ("_names", "_generation", "_handles")

    def __init__(self, *names: str):
        self._names = names
        self._generation = -1
        self._handles: Tuple[Counter, ...] = ()

    def fetch(self, registry: MetricsRegistry) -> Tuple[Counter, ...]:
        if registry.generation != self._generation:
            self._generation = registry.generation
            self._handles = tuple(registry.counter(name)
                                  for name in self._names)
        return self._handles
