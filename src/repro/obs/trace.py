"""Decision tracing: structured events for the moments the paper
evaluates.

A `TraceEvent` is one decision or observation — a probe round, a
forwarding failover, a controller epoch, an autoscale step — stamped
with *simulated* time (`t`, seconds since the scenario's origin) so
traces line up with the simulators' clocks regardless of wall speed.
Wall-clock only enters through `Tracer.span`, which times a code block
(Algorithm 1/2 steps) and records the duration as a field.

The buffer is bounded: once `MAX_EVENTS` is reached further events are
counted in `dropped` (and surfaced through the `on_drop` hook, which
the telemetry hub wires to a `tracer.events_dropped` metrics counter)
instead of stored, so a runaway experiment cannot eat the host's memory
through its own instrumentation.

Sinks (`add_sink`) observe *every* recorded event as it happens —
including ones past the buffer bound, so a streaming exporter keeps a
complete record while the in-memory buffer stays bounded.  Sinks must
be cheap and must never mutate the event.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Canonical event kinds emitted by the built-in instrumentation; the
#: tracer accepts any string, this is the documented catalog.
KINDS = (
    "probe_round",        # one probing instant of every region cluster
    "rep_election",       # probing-group representative set changed
    "path_decision",      # representative path (re)selected for a pair
    "failover",           # traffic switched to a premium backup path
    "failback",           # traffic returned to its normal path
    "control_epoch",      # one full controller computation
    "algo_step",          # a timed step inside the control loop
    "autoscale",          # a capacity decision (predicted vs actual)
    "controller_outage",  # an epoch skipped because the controller is down
    # Fault-injection seams (`repro.faults`); emitted only when a
    # schedule is active, so fault-free runs never carry these.
    "fault_gateway_crash",      # injected crash removed gateways
    "fault_gateway_restart",    # replacements came back after a crash
    "fault_probe_blackout",     # links a probing blackout hid this instant
    "fault_report_drop",        # a NIB link report was discarded
    "fault_report_stale",       # a NIB report was aged before delivery
    "fault_install_delayed",    # a controller install left the push queue late
    "fault_install_partial",    # an install landed truncated
    "fault_platform_load",      # a provisioning storm inflated startup delays
    "fault_controller_outage",  # schedule-driven outage skipped an epoch
    "fault_control_partition",  # a partition severed regions from the controller
    "fault_membership_churn",   # a churn window suppressed liveness refreshes
    # Safe-update & recovery layer (`repro.resilience`); emitted only
    # when the layer is armed, so default runs never carry these.
    "resilience_install_rejected",   # an update failed invariant validation
    "resilience_install_retry",      # a rejected/deferred update was requeued
    "resilience_install_commit",     # a validated update committed everywhere
    "resilience_install_abandoned",  # the retry budget ran out (last-good rides)
    "resilience_checkpoint",         # controller state was serialized
    "resilience_restore",            # a post-outage restart (warm or cold)
    "resilience_degraded_mode",      # a stale table demoted a stream to premium
    "resilience_holddown",           # failback suppressed by the hold-down timer
    # Per-stream SLO engine (`repro.obs.slo`); emitted only when an
    # engine is armed, so default runs never carry these.
    "slo_breach",                    # a stream's burn rate crossed its target
    "slo_recovered",                 # the burn rate fell back under hysteresis
    # Partition tolerance (`repro.controlplane.membership` /
    # `repro.controlplane.regional`); emitted only when those
    # subsystems are armed, so default runs never carry these.
    "membership_join",            # a gateway (re)entered the live soft state
    "membership_expired",         # a TTL expiry removed a liveness entry
    "membership_region_demoted",  # a known region had zero live gateways
    "partition_onset",            # a sub-controller took over a severed set
    "partition_regional_epoch",   # one degraded-mode control epoch ran
    "partition_regional_commit",  # a validated regional install landed
    "partition_regional_rejected",  # a regional update failed invariants
    "partition_heal",             # a severed set rejoined; versions fenced
    "partition_reconciled",       # the post-heal global commit superseded all
    # Service mode (`repro.core.service`); emitted only by a running
    # `XRONService`, so batch runs never carry these.
    "service_heartbeat",             # periodic progress + process health
    "service_checkpoint_persisted",  # the checkpoint envelope hit the disk
    "service_restore",               # the service resumed from an envelope
    "service_shutdown",              # the drain finished (with its reason)
)


class TraceEvent:
    """One structured decision record.

    A plain ``__slots__`` class rather than a dataclass: tracers create
    tens of thousands of these inside instrumented hot loops, and the
    cheap ``__init__`` is a measurable part of the telemetry overhead
    budget.
    """

    __slots__ = ("kind", "t", "seq", "fields")

    def __init__(self, kind: str, t: Optional[float], seq: int,
                 fields: Optional[Dict[str, Any]] = None):
        self.kind = kind
        self.t = t                  #: simulated time, seconds (None = n/a)
        self.seq = seq              #: emission order, unique per tracer
        self.fields = {} if fields is None else fields

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"kind": self.kind, "seq": self.seq}
        if self.t is not None:
            doc["t"] = round(float(self.t), 6)
        for key, value in self.fields.items():
            doc[key] = value if type(value) in _PLAIN else _jsonable(value)
        return doc


#: Field types `json` writes as they are: most fields are one of these,
#: and an exact type test is cheaper than `_jsonable`'s coercions.
_PLAIN = frozenset((str, int, float, bool, type(None)))


def _jsonable(value: Any) -> Any:
    """Coerce a field value to something `json.dump` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if hasattr(value, "value"):        # enums (LinkType) -> their value
        return _jsonable(value.value)
    if hasattr(value, "item"):         # numpy scalars
        return value.item()
    return str(value)


#: Events a tracer's buffer holds before it drops (and counts) the rest.
MAX_EVENTS = 200_000


class Tracer:
    """Bounded in-memory event collector."""

    def __init__(self):
        self.max_events = MAX_EVENTS
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self._seq = 0
        #: Called (no args) each time an event is dropped at the bound.
        self.on_drop: Optional[Callable[[], None]] = None
        #: Live observers of every recorded event (streaming exporters,
        #: SLO engines).  Survive `reset()`: lifecycle is the owner's job.
        self._sinks: List[Callable[[TraceEvent], None]] = []

    def record(self, kind: str, t: Optional[float] = None,
               **fields: Any) -> None:
        """Append one event (drops, counting, once the buffer is full)."""
        self.record_dict(kind, t, fields)

    def record_dict(self, kind: str, t: Optional[float],
                    fields: Dict[str, Any]) -> None:
        """`record` taking the fields dict directly — the hot-path entry
        (skips a kwargs unpack/repack; the caller hands over ownership
        of `fields`)."""
        self._seq += 1
        event = TraceEvent(kind, t, self._seq, fields)
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1
            if self.on_drop is not None:
                self.on_drop()
        if self._sinks:
            for sink in self._sinks:
                sink(event)

    @contextmanager
    def span(self, kind: str, t: Optional[float] = None,
             **fields: Any) -> Iterator[None]:
        """Time a code block; records `kind` with a `duration_ms` field."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            duration_ms = (time.perf_counter() - t0) * 1e3
            self.record(kind, t, duration_ms=round(duration_ms, 3),
                        **fields)

    def add_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        """Register a live event observer (sees events past the bound)."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        """Unregister a sink; missing sinks are ignored."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def to_json(self) -> List[Dict[str, Any]]:
        return [e.to_json() for e in self.events]

    def reset(self) -> None:
        self.events.clear()
        self.dropped = 0
        self._seq = 0
