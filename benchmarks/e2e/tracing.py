"""Outside-in span tracing: wrap the layers' public functions, record
spans in memory, and restore the originals afterwards.

Nothing under ``src/`` knows about this file.  A traced run replaces
attributes on the layers' classes and modules with timing wrappers
(`install`), runs the workload, and puts the originals back
(`Tracer.restore`).  Layers are the packages under ``src/repro``; a
span's layer is the part of its name before the first dot.

A span is (name, start, end, parent).  Hot leaf spans (link evaluation,
fault-seam queries, telemetry events: 10^5..10^6 calls a run) are only
aggregated per (parent name, name); every other span is also stored one
by one so per-call statistics (the epoch budget) can be read back.

Self time of a span is its duration minus the part its child spans
cover; a layer's self time is the sum over its spans, counted only
while the timed region is open so set-up spans do not pollute shares.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: A stored span: (name, start_s, end_s, index of the parent stored span or -1).
Span = Tuple[str, float, float, int]


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        #: Open frames: [name, start, child_inclusive_s, stored_index, store].
        self._stack: List[list] = []
        self.spans: List[Span] = []
        #: (parent name or "", name) -> [calls, busy_s, self_s, timed_self_s]
        self.agg: Dict[Tuple[str, str], List[float]] = {}
        #: Named counts taken at the same boundaries (e.g. reports returned).
        self.counts: Dict[str, float] = {}
        #: Only spans closed while this is set count towards shares.
        self.timed = False
        self._restores: List[Tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- recording
    def enter(self, name: str, store: bool) -> Optional[list]:
        """Open a span; returns None for a re-entrant call of the same
        name (a wrapped method calling its wrapped sibling), which is
        then counted as part of the outer span."""
        stack = self._stack
        if stack and stack[-1][0] == name:
            return None
        index = -1
        if store:
            parent = stack[-1][3] if stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
        elif stack:
            index = stack[-1][3]  # hot leaf: children inherit the ancestor
        frame = [name, 0.0, 0.0, index, store]
        stack.append(frame)
        frame[1] = self._clock()
        return frame

    def exit(self, frame: list) -> None:
        end = self._clock()
        stack = self._stack
        stack.pop()
        name, start, child_s, index, store = frame
        busy = end - start
        parent_name = ""
        if stack:
            parent = stack[-1]
            parent[2] += busy
            parent_name = parent[0]
        entry = self.agg.get((parent_name, name))
        if entry is None:
            entry = self.agg[(parent_name, name)] = [0, 0.0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += busy
        entry[2] += busy - child_s
        if self.timed:
            entry[3] += busy - child_s
        if store:
            self.spans[index] = (name, start, end, self.spans[index][3])

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    # ------------------------------------------------------------ wrapping
    def wrap(self, owner: Any, attr: str, name: str, *, store: bool = True,
             on_result: Optional[Callable[[Any], float]] = None,
             count_name: Optional[str] = None) -> None:
        """Replace ``owner.attr`` (class or module attribute) by a span
        wrapper.  classmethod/staticmethod descriptors are preserved.
        `on_result` maps the return value to a number added to
        ``counts[count_name]``."""
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, store)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if on_result is not None:
                tracer.count(count_name, on_result(result))
            return result

        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        self._restores.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back (idempotent)."""
        while self._restores:
            owner, attr, raw = self._restores.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------- reading
    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive busy_s, self_s, timed self_s."""
        out: Dict[str, Dict[str, float]] = {}
        for (__, name), (calls, busy, self_s, timed_self) in self.agg.items():
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0, "timed_self_s": 0.0})
            row["calls"] += calls
            row["busy_s"] += busy
            row["self_s"] += self_s
            row["timed_self_s"] += timed_self
        return out

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer, spans closed inside the timed region only."""
        out: Dict[str, float] = {}
        for name, row in self.by_name().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + row["timed_self_s"]
        return out

    def durations(self, name: str,
                  exclude_parent: Optional[str] = None) -> List[float]:
        """Durations of the stored spans called `name`, optionally
        skipping those whose parent span has the given name."""
        out = []
        for span_name, start, end, parent in self.spans:
            if span_name != name:
                continue
            if (exclude_parent is not None and parent >= 0
                    and self.spans[parent][0] == exclude_parent):
                continue
            out.append(end - start)
        return out


# --------------------------------------------------------------------------
# The wrap table: which public function of which layer is which span.
# --------------------------------------------------------------------------
class Wrap(NamedTuple):
    """One layer boundary.  Module-level functions (`owner` None) are
    patched in the namespace of the module that *calls* them (``from x
    import f`` binds a private reference there)."""

    module: str
    owner: Optional[str]
    attr: str
    span: str
    #: Stored one by one (False = hot leaf, aggregated per parent only).
    store: bool = True
    #: Per-layer count fed with ``len(result)`` of every call.
    count_len: Optional[str] = None


#: Every `FaultInjector` seam the engine queries -> one span name.
FAULT_SEAMS = (
    "controller_down", "probe_blackout", "region_blackout", "filter_report",
    "install_delay_spec", "install_delay", "install_partial_spec",
    "install_keep_fraction", "platform_load", "crash_windows",
    "active_partitions", "partition_regions", "membership_churn")

WRAPS: List[Wrap] = [
    # underlay
    Wrap("repro.underlay.topology", None, "build_underlay", "underlay.build"),
    Wrap("repro.underlay.planet", None, "build_underlay", "underlay.build"),
    Wrap("repro.core.system", None, "build_underlay", "underlay.build"),
    Wrap("repro.underlay.topology", "Underlay", "snapshot",
         "underlay.snapshot"),
    Wrap("repro.underlay.linkstate", "LinkProcess", "latency_ms",
         "underlay.link_eval", store=False),
    Wrap("repro.underlay.linkstate", "LinkProcess", "loss_rate",
         "underlay.link_eval", store=False),
    # traffic
    Wrap("repro.traffic.matrix", "TrafficMatrix", "from_model",
         "traffic.from_model"),
    Wrap("repro.traffic.streams", "StreamWorkload", "decompose",
         "traffic.decompose"),
    Wrap("repro.traffic.cohorts", "CohortWorkload", "decompose",
         "traffic.decompose"),
    # dataplane
    Wrap("repro.dataplane.cluster", "RegionCluster", "probe_round",
         "dataplane.probe_round",
         count_len="dataplane.probe_round.reports"),
    Wrap("repro.dataplane.cluster", "RegionCluster", "flush_passive",
         "dataplane.flush_passive"),
    Wrap("repro.dataplane.cluster", "RegionCluster", "install",
         "dataplane.install"),
    Wrap("repro.dataplane.cluster", "RegionCluster", "resolve",
         "dataplane.resolve", store=False),
    Wrap("repro.dataplane.grouping", "ProbingGroupManager", "aggregate",
         "dataplane.aggregate", store=False),
    Wrap("repro.core.simulator", None, "effective_path_series",
         "dataplane.path_series"),
    Wrap("repro.core.simulator", None, "burst_series",
         "dataplane.burst_series"),
    # controlplane
    Wrap("repro.controlplane.controller", "Controller", "run_epoch",
         "controlplane.run_epoch"),
    Wrap("repro.controlplane.nib", "NetworkInformationBase", "update_many",
         "controlplane.nib_update"),
    Wrap("repro.controlplane.controller", "Controller", "link_snapshot",
         "controlplane.link_snapshot"),
    Wrap("repro.controlplane.controller", None, "path_control",
         "controlplane.path_control"),
    Wrap("repro.controlplane.controller", None, "capacity_control",
         "controlplane.capacity_control"),
    Wrap("repro.controlplane.controller", None, "generate_reaction_plans",
         "controlplane.reaction_plans"),
    Wrap("repro.controlplane.sib", "StreamInformationBase", "record_epoch",
         "controlplane.predict"),
    Wrap("repro.controlplane.sib", "StreamInformationBase",
         "predicted_matrix", "controlplane.predict"),
    Wrap("repro.controlplane.membership", "MembershipTable", "refresh",
         "controlplane.membership", store=False),
    Wrap("repro.controlplane.membership", "MembershipTable", "expire",
         "controlplane.membership", store=False),
    Wrap("repro.controlplane.membership", "MembershipTable", "clamp",
         "controlplane.membership", store=False),
    Wrap("repro.controlplane.regional", "RegionalController", "run_epoch",
         "controlplane.regional_epoch"),
    # elastic
    Wrap("repro.elastic.containers", "ContainerPool", "scale_to",
         "elastic.scale_to"),
    Wrap("repro.elastic.containers", "ContainerPool", "ready_count",
         "elastic.ready_count", store=False),
    # resilience
    Wrap("repro.resilience.install", "TwoPhaseInstaller", "validate",
         "resilience.validate"),
    Wrap("repro.resilience.checkpoint", "Checkpoint", "take",
         "resilience.checkpoint_take"),
    Wrap("repro.resilience.checkpoint", "Checkpoint", "dumps",
         "resilience.checkpoint_dumps",
         count_len="resilience.checkpoint_bytes"),
    # faults
    *(Wrap("repro.faults.runtime", "FaultInjector", seam, "faults.queries",
           store=False) for seam in FAULT_SEAMS),
    # obs
    Wrap("repro.obs", "Telemetry", "event", "obs.event", store=False),
    Wrap("repro.obs", "Telemetry", "flush_stream", "obs.flush_stream"),
    Wrap("repro.obs.slo", "SLOEngine", "observe", "obs.slo_observe",
         store=False),
    # core
    Wrap("repro.core.eventsim", "EventDrivenXRON", "run", "core.run"),
    Wrap("repro.core.service", "XRONService", "run", "core.run"),
    Wrap("repro.core.simulator", "EpochSimulator", "run", "core.run"),
    Wrap("repro.core.service", "XRONService", "_write_envelope",
         "core.envelope_write"),
    Wrap("repro.core.service", "XRONService", "_heartbeat",
         "core.heartbeat"),
    # cost
    Wrap("repro.cost.accounting", "CostLedger", "add_internet_traffic",
         "cost.ledger_add", store=False),
    Wrap("repro.cost.accounting", "CostLedger", "add_premium_traffic",
         "cost.ledger_add", store=False),
    Wrap("repro.cost.accounting", "CostLedger", "add_container_hours",
         "cost.ledger_add", store=False),
    Wrap("repro.cost.accounting", "PairCostLedger",
         "add_internet_traffic_for_pair", "cost.ledger_add", store=False),
    Wrap("repro.cost.accounting", "PairCostLedger",
         "add_premium_traffic_for_pair", "cost.ledger_add", store=False),
    # qoe
    Wrap("repro.core.simulator", "SimulationResult", "qoe_summary",
         "qoe.summary"),
]

#: Span names, and the layers that own them, in report order.
SPAN_NAMES: List[str] = list(dict.fromkeys(w.span for w in WRAPS))
LAYERS: List[str] = list(dict.fromkeys(
    name.split(".", 1)[0] for name in SPAN_NAMES))


def wrapped_owner(wrap: Wrap) -> Any:
    """The class or module whose attribute `wrap` replaces."""
    module = importlib.import_module(wrap.module)
    return getattr(module, wrap.owner) if wrap.owner else module


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary in `WRAPS`.  Call after the `repro`
    modules the workload needs are importable, before any system object
    is built — bound methods captured at construction (the NIB's fault
    filter) then bind to the wrappers."""
    for wrap in WRAPS:
        tracer.wrap(wrapped_owner(wrap), wrap.attr, wrap.span,
                    store=wrap.store,
                    on_result=len if wrap.count_len else None,
                    count_name=wrap.count_len)
