"""Per-stream QoE ledger + SLO engine: burn rates and causal breaches.

XRON's operational question is not "what was the p99 latency" but
"which streams violated their service objective, when, and *because of
what*".  This module answers it on top of the telemetry hub:

* an `SLOTarget` declares what "bad" means for one service class — a
  latency/loss threshold (or any per-sample badness predicate, e.g. a
  QoE stall classifier from `repro.qoe.metrics.qoe_badness`), a rolling
  window, and an error budget;
* `SLOEngine.observe` ingests per-stream samples (the event simulator's
  measurement ticks, or the epoch simulator's evaluated series) and
  maintains a rolling-window **burn rate** — the fraction of bad
  samples in the window divided by the error budget, the standard SRE
  framing where burn 1.0 means "spending budget exactly as fast as
  allowed";
* crossing ``breach_burn`` emits an ``slo_breach`` trace event,
  falling back under ``recover_burn`` (hysteresis) emits
  ``slo_recovered``;
* the engine also rides the tracer as a sink, remembering recent
  fault/resilience events, so each breach is **causally annotated**
  with the nearest preceding fault (kind, time, seq, and the injected
  ``fault_id`` where the seam carries one) and each recovery with the
  nearest remedy (reaction-plan commit, failover, gateway restart) —
  the "stream X degraded → probe blackout at t → plan installed at
  t+Δ" chain the paper's §6.3 narrates by hand.

The engine is passive and deterministic: it consumes no randomness,
never touches simulator state, and emits events only while the hub is
enabled — an armed engine leaves simulation output byte-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs import Telemetry, telemetry as _telemetry
from repro.obs.trace import TraceEvent

#: Event kinds treated as breach *causes*, by prefix/name.
_CAUSE_PREFIXES = ("fault_",)
_CAUSE_KINDS = ("controller_outage",)
#: Event kinds treated as recovery *remedies*.
_REMEDY_KINDS = ("failover", "resilience_install_commit",
                 "resilience_restore", "fault_gateway_restart")
#: How far back (simulated seconds) a fault may be and still be blamed
#: for a breach, and how many causes / remedies are remembered.
CAUSE_WINDOW_S = 180.0
REMEMBERED_EVENTS = 512


@dataclass(frozen=True)
class SLOTarget:
    """Declarative objective for one service class."""

    name: str = "interactive"
    #: Per-sample badness thresholds (ignored when `badness` is given).
    latency_ms: float = 400.0
    loss_rate: float = 0.05
    #: Rolling evaluation window, simulated seconds.
    window_s: float = 30.0
    #: Allowed bad-sample fraction; burn rate = bad fraction / budget.
    error_budget: float = 0.1
    #: Burn rate at/above which a stream enters breach ...
    breach_burn: float = 1.0
    #: ... and at/below which it recovers (hysteresis: < breach_burn).
    recover_burn: float = 0.5
    #: Samples required in the window before breaching (no flapping on
    #: the first bad sample of a fresh stream).
    min_samples: int = 5

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive, got "
                             f"{self.window_s}")
        if not 0.0 < self.error_budget <= 1.0:
            raise ValueError(f"error_budget must be in (0, 1], got "
                             f"{self.error_budget}")
        if self.recover_burn >= self.breach_burn:
            raise ValueError(
                f"recover_burn ({self.recover_burn}) must stay below "
                f"breach_burn ({self.breach_burn}) for hysteresis")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


@dataclass
class StreamLedger:
    """Per-stream QoE accounting (the run-long totals, not the window)."""

    stream: str
    samples: int = 0
    bad_samples: int = 0
    blackhole_samples: int = 0
    sum_latency_ms: float = 0.0
    max_latency_ms: float = 0.0
    sum_loss: float = 0.0
    breaches: int = 0
    breach_seconds: float = 0.0
    in_breach: bool = False
    breach_started: Optional[float] = None
    first_t: Optional[float] = None
    last_t: Optional[float] = None
    #: Rolling window of (t, bad) samples plus its running bad count.
    window: Deque[Tuple[float, bool]] = field(default_factory=deque)
    window_bad: int = 0

    @property
    def bad_fraction(self) -> float:
        return self.bad_samples / self.samples if self.samples else 0.0

    @property
    def mean_latency_ms(self) -> float:
        measured = self.samples - self.blackhole_samples
        return self.sum_latency_ms / measured if measured else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"samples": self.samples, "bad_samples": self.bad_samples,
                "bad_fraction": round(self.bad_fraction, 6),
                "blackhole_samples": self.blackhole_samples,
                "mean_latency_ms": round(self.mean_latency_ms, 3),
                "max_latency_ms": round(self.max_latency_ms, 3),
                "breaches": self.breaches,
                "breach_seconds": round(self.breach_seconds, 3),
                "in_breach": self.in_breach}


class SLOEngine:
    """Rolling-window SLO evaluation with causal breach annotation."""

    def __init__(self, target: Optional[SLOTarget] = None,
                 hub: Optional[Telemetry] = None, *,
                 badness: Optional[Callable[[float, float], bool]] = None):
        """`badness(latency_ms, loss_rate) -> bool` overrides the
        target's threshold comparison (e.g. a QoE stall classifier);
        blackholed samples are always bad."""
        self.target = target if target is not None else SLOTarget()
        self._tel = hub if hub is not None else _telemetry()
        self._badness = badness
        self.streams: Dict[str, StreamLedger] = {}
        self._causes: Deque[TraceEvent] = deque(maxlen=REMEMBERED_EVENTS)
        self._remedies: Deque[TraceEvent] = deque(maxlen=REMEMBERED_EVENTS)
        self._tel.tracer.add_sink(self._on_trace_event)

    def close(self) -> None:
        """Unhook from the tracer (idempotent)."""
        self._tel.tracer.remove_sink(self._on_trace_event)

    # ------------------------------------------------------------ ingestion
    def observe(self, stream: str, t: float,
                latency_ms: Optional[float] = None,
                loss_rate: Optional[float] = None,
                blackholed: bool = False) -> None:
        """Ingest one measured sample for `stream` at simulated time `t`."""
        ledger = self.streams.get(stream)
        if ledger is None:
            ledger = self.streams[stream] = StreamLedger(stream)
            ledger.first_t = t
        ledger.last_t = t
        ledger.samples += 1
        if blackholed:
            bad = True
            ledger.blackhole_samples += 1
        else:
            lat = float(latency_ms if latency_ms is not None else 0.0)
            loss = float(loss_rate if loss_rate is not None else 0.0)
            if self._badness is not None:
                bad = bool(self._badness(lat, loss))
            else:
                bad = (lat > self.target.latency_ms
                       or loss > self.target.loss_rate)
            ledger.sum_latency_ms += lat
            if lat > ledger.max_latency_ms:
                ledger.max_latency_ms = lat
            ledger.sum_loss += loss
        if bad:
            ledger.bad_samples += 1

        window = ledger.window
        window.append((t, bad))
        if bad:
            ledger.window_bad += 1
        horizon = t - self.target.window_s
        while window and window[0][0] <= horizon:
            __, was_bad = window.popleft()
            if was_bad:
                ledger.window_bad -= 1

        burn = ((ledger.window_bad / len(window)) / self.target.error_budget
                if window else 0.0)
        if (not ledger.in_breach
                and len(window) >= self.target.min_samples
                and burn >= self.target.breach_burn):
            self._enter_breach(ledger, t, burn)
        elif ledger.in_breach and burn <= self.target.recover_burn:
            self._exit_breach(ledger, t, burn)

    def sample(self, pair: Tuple[str, str], t: float,
               latency_ms: Optional[float], loss_rate: Optional[float],
               blackholed: bool) -> None:
        """The event engine's measurement hook (`EventDrivenXRON(slo=)`
        lists this object as an extension): one tracked session's
        sample, named ``src->dst``."""
        self.observe(f"{pair[0]}->{pair[1]}", t, latency_ms, loss_rate,
                     blackholed=blackholed)

    # ------------------------------------------------------------- breaches
    def _enter_breach(self, ledger: StreamLedger, t: float,
                      burn: float) -> None:
        ledger.in_breach = True
        ledger.breach_started = t
        ledger.breaches += 1
        fields: Dict[str, Any] = {
            "stream": ledger.stream, "target": self.target.name,
            "burn_rate": round(burn, 3),
            "bad_fraction": round(
                ledger.window_bad / max(len(ledger.window), 1), 4),
            "window_s": self.target.window_s}
        self._annotate(fields, self._causes, t, prefix="cause")
        if self._tel.enabled:
            self._tel.counter("slo.breaches").inc()
            self._tel.gauge("slo.streams_in_breach").set(
                sum(lg.in_breach for lg in self.streams.values()))
            self._tel.event("slo_breach", t=t, **fields)

    def _exit_breach(self, ledger: StreamLedger, t: float,
                     burn: float) -> None:
        ledger.in_breach = False
        duration = t - (ledger.breach_started
                        if ledger.breach_started is not None else t)
        ledger.breach_seconds += duration
        ledger.breach_started = None
        fields: Dict[str, Any] = {
            "stream": ledger.stream, "target": self.target.name,
            "burn_rate": round(burn, 3),
            "duration_s": round(duration, 3)}
        self._annotate(fields, self._remedies, t, prefix="remedy")
        if self._tel.enabled:
            self._tel.counter("slo.recoveries").inc()
            self._tel.gauge("slo.streams_in_breach").set(
                sum(lg.in_breach for lg in self.streams.values()))
            self._tel.histogram(
                "slo.breach_duration_s",
                buckets=(1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 900.0)
            ).observe(duration)
            self._tel.event("slo_recovered", t=t, **fields)

    def _annotate(self, fields: Dict[str, Any],
                  remembered: Deque[TraceEvent], t: float,
                  prefix: str) -> None:
        """Attach the nearest remembered event at-or-before `t`."""
        for event in reversed(remembered):
            if event.t is None or event.t > t:
                continue
            if t - event.t > CAUSE_WINDOW_S:
                break
            fields[f"{prefix}_kind"] = event.kind
            fields[f"{prefix}_t"] = round(event.t, 6)
            fields[f"{prefix}_seq"] = event.seq
            fault_id = event.fields.get("fault_id")
            if fault_id is None:
                ids = event.fields.get("fault_ids")
                if ids:
                    fault_id = ids[0]
            if fault_id is not None:
                fields[f"{prefix}_fault_id"] = fault_id
            region = event.fields.get("region")
            if region is not None:
                fields[f"{prefix}_region"] = region
            return

    def _on_trace_event(self, event: TraceEvent) -> None:
        """Tracer sink: remember candidate causes and remedies."""
        kind = event.kind
        if kind in _REMEDY_KINDS:
            self._remedies.append(event)
        if kind.startswith(_CAUSE_PREFIXES) or kind in _CAUSE_KINDS:
            self._causes.append(event)

    # -------------------------------------------------------------- reports
    def report(self) -> Dict[str, Dict[str, Any]]:
        """Run-long per-stream ledger, JSON-ready, keyed by stream."""
        return {name: self.streams[name].as_dict()
                for name in sorted(self.streams)}

    def render_report(self) -> List[str]:
        """Human-readable ledger lines (the CLI's --slo epilogue)."""
        lines = [f"SLO '{self.target.name}': window "
                 f"{self.target.window_s:g}s, budget "
                 f"{self.target.error_budget:g}, breach/recover burn "
                 f"{self.target.breach_burn:g}/{self.target.recover_burn:g}"]
        for name, doc in self.report().items():
            state = "IN BREACH" if doc["in_breach"] else "ok"
            lines.append(
                f"  {name}: {doc['samples']} samples, "
                f"bad {doc['bad_fraction'] * 100:.1f}%, "
                f"blackholed {doc['blackhole_samples']}, "
                f"breaches {doc['breaches']} "
                f"({doc['breach_seconds']:.1f}s), {state}")
        if len(lines) == 1:
            lines.append("  (no streams observed)")
        return lines


__all__ = ["SLOTarget", "SLOEngine", "StreamLedger"]
