"""`repro.obs` — the unified telemetry subsystem.

One facade object (`Telemetry`) bundles the two collection surfaces:

* a `MetricsRegistry` (counters / gauges / fixed-bucket histograms) for
  rates and totals the hot loops update;
* a `Tracer` for structured *decision events* — probe rounds, path
  picks, premium failovers, controller epochs, autoscale steps — the
  moments the paper's evaluation watches.

Telemetry is **off by default** and costs one attribute check per
instrumented site while off: call sites hold the process-wide hub
(`telemetry()`) and guard with ``if tel.enabled:``, the one off switch
(events and spans check it themselves; a metric write is guarded by
its caller).

The hub is a mutate-in-place singleton: `enable()` / `disable()` /
`reset()` flip or clear the one instance rather than swapping it, so
handles cached at import or construction time never go stale — which is
what makes per-call ``telemetry()`` lookups unnecessary in hot loops.
Worker processes (the experiment orchestrator) use `capture()` to run
one experiment under a fresh enabled hub and harvest its events and
metric snapshot afterwards.

Typical use::

    from repro import obs

    obs.enable()
    result = system.run(variant=xron(), start_hour=9.0, hours=1.0)
    tel = obs.telemetry()
    obs_export.write_jsonl("telemetry.jsonl", tel.events_json(),
                           metrics=tel.metrics.snapshot())
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional, Sequence

from pathlib import Path
from typing import Union

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.stream import DEFAULT_MAX_BYTES, TelemetryStream
from repro.obs.trace import TraceEvent, Tracer

__all__ = [
    "Telemetry", "telemetry", "enable", "disable", "reset", "capture",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "Tracer", "TraceEvent", "TelemetryStream",
]

_NULL_SPAN = nullcontext()


class Telemetry:
    """Metrics registry + decision tracer behind one enable switch."""

    def __init__(self):
        #: The one off switch; the hub starts disabled.
        self.enabled = False
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        # Drop accounting: hitting the tracer bound shows up as a real
        # metric, not just a silent tracer attribute.
        self.tracer.on_drop = self._count_drop
        #: Attached live exporter (`repro.obs.stream`), None when absent.
        self.stream: Optional[TelemetryStream] = None

    def _count_drop(self) -> None:
        self.metrics.counter("tracer.events_dropped").inc()

    # ------------------------------------------------------------- metrics
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str, buckets: Sequence[float]) -> Histogram:
        return self.metrics.histogram(name, buckets)

    # -------------------------------------------------------------- tracing
    def event(self, kind: str, t: Optional[float] = None,
              **fields: Any) -> None:
        if self.enabled:
            self.tracer.record_dict(kind, t, fields)

    def span(self, kind: str, t: Optional[float] = None, **fields: Any):
        """Context manager timing a block into an event (no-op when off)."""
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(kind, t, **fields)

    def events_json(self) -> List[Dict[str, Any]]:
        return self.tracer.to_json()

    # ------------------------------------------------------------ streaming
    def attach_stream(self, target: Union[str, Path], *,
                      max_bytes: int = DEFAULT_MAX_BYTES,
                      meta: Optional[Dict[str, Any]] = None
                      ) -> TelemetryStream:
        """Attach a live JSONL exporter writing to `target`.

        Every subsequently recorded trace event is written through as
        it happens; call `flush_stream` at epoch boundaries (the
        simulators do) to emit metric deltas.  One stream at a time.
        """
        if self.stream is not None:
            raise RuntimeError("a telemetry stream is already attached")
        stream = TelemetryStream(target, max_bytes=max_bytes, meta=meta)
        self.stream = stream
        self.tracer.add_sink(stream.write_event)
        return stream

    def detach_stream(self, close: bool = True
                      ) -> Optional[TelemetryStream]:
        """Detach (and by default finalize) the attached stream.

        With ``close=True`` a final metrics delta is flushed and the
        file handle closed; ``close=False`` only unhooks the sink and
        returns the still-open stream.
        """
        stream = self.stream
        if stream is None:
            return None
        self.tracer.remove_sink(stream.write_event)
        self.stream = None
        if close:
            stream.close(self.metrics)
        return stream

    def flush_stream(self, t: Optional[float] = None) -> None:
        """Flush metric deltas to the attached stream (no-op without)."""
        if self.stream is not None:
            self.stream.flush_metrics(self.metrics, t=t)

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        """Clear collected state (keeps the enabled flag)."""
        self.metrics.reset()
        self.tracer.reset()


#: The process-wide hub.  Mutated in place, never replaced.
_HUB = Telemetry()


def telemetry() -> Telemetry:
    """The process-wide telemetry hub (stable object identity)."""
    return _HUB


def enable() -> Telemetry:
    """Turn collection on; returns the hub for convenience."""
    _HUB.enabled = True
    return _HUB


def disable() -> Telemetry:
    _HUB.enabled = False
    return _HUB


def reset() -> Telemetry:
    """Drop all collected metrics and events (flag untouched)."""
    _HUB.reset()
    return _HUB


@contextmanager
def capture() -> Iterator[Telemetry]:
    """Run a block under a fresh, enabled hub; restore state afterwards.

    Snapshot what you need from the yielded hub *inside* the block (or
    before the next `capture`) — on exit the previous enabled flag is
    restored but the collected data stays on the hub until the next
    `reset`/`capture`, so the orchestrator can harvest it right after
    the block.

    A window never writes into the surrounding run's stream files, so
    it refuses to open while a stream is attached (`RuntimeError`); a
    stream attached inside the block is closed on exit.
    """
    if _HUB.stream is not None:
        raise RuntimeError("capture() with a telemetry stream attached")
    was_enabled = _HUB.enabled
    reset()
    enable()
    try:
        yield _HUB
    finally:
        (enable if was_enabled else disable)()
        # A stream the block attached and left (one whose block raised)
        # would otherwise leak into the surrounding run; finalize it
        # with the window's metrics while they are still on the hub.
        _HUB.detach_stream(close=True)
