"""The four workloads: seeded input generators and closed-loop runners.

Each workload is a `build` (set-up: everything generated from the two
seeds, outside the timed region) and a `run` (the timed region: one
public entry point of the program, driven from one process and one
thread, the next operation issued only when the previous one returned).
The program receives only the generated objects.

Two seeds: the *world* seed fixes the topology — link stretch, badness
and degradation timelines, the demand model — and ``--seed`` drives
everything random in the run itself (probe and measurement noise,
stream decomposition, provisioning delays, the fault RNG, the traffic
factors).  Redrawing the world moves the simulated latencies by tens of
percent (an 11-region world is a small sample of links), which would
drown any regression bound; redrawing the run's randomness in a fixed
world does not.  `verify` holds out a second world.

The amount of simulated work is a fixed function of ``--seconds`` (a
rate calibrated on a 2-core box, see README), never of the clock, so
the simulated outcomes repeat exactly for a given (seed, seconds).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.controlplane import membership, regional_control
from repro.controlplane.controller import Controller, ControlOutput
from repro.controlplane.model import ControlConfig
from repro.controlplane.nib import LinkReport
from repro.core import EventDrivenXRON, SimulationConfig, XRONSystem, xron
from repro.core.service import (ServiceConfig, XRONService,
                                build_soak_schedule)
from repro.experiments.base import planet_underlay
from repro.faults.runtime import FaultCounters
from repro.faults.spec import FaultKind
from repro.obs.slo import SLOEngine
from repro.qoe.metrics import qoe_badness
from repro.resilience.config import resilience
from repro.resilience.invariants import validate_install
from repro.traffic.cohorts import CohortWorkload
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.underlay import topology
from repro.underlay.config import UnderlayConfig
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import default_regions, propagation_delay_ms
from repro.underlay.snapshot import TYPE_INDEX

from .hostclock import Stopwatch
from .tracing import Tracer

#: Simulated work per second of ``--seconds``, calibrated so the timed
#: region lasts about ``--seconds`` while the reference box (2 cores) is
#: in its slowest regime, and about 0.6 x ``--seconds`` when it is quiet.
EVENT_SIM_S_PER_SECOND = 62.0 / 15.0
SERVE_SIM_S_PER_SECOND = 75.0
EPOCH_SIM_S_PER_SECOND = 1280.0
CONTROL_EPOCHS_PER_SECOND = 8.0 / 15.0

#: Soak rotation period of `serve_chaos_n3`: short enough that the whole
#: `FaultKind` taxonomy fires within a 1125 sim-s window (120 s lead +
#: 9 x 90 s + the 180 s tail `build_soak_schedule` keeps free).
SERVE_CHAOS_PERIOD_S = 90.0
SERVE_EPOCH_S = 60.0


# --------------------------------------------------------------------------
# What a run hands back
# --------------------------------------------------------------------------
@dataclass
class Outcome:
    """Raw results of one timed region (metrics are derived later; the
    region's wall and CPU time stay with the stopwatch)."""

    sim_s: float
    #: Path-latency population and its weights (None = one per sample).
    latency_ms: np.ndarray
    weights: Optional[np.ndarray]
    premium_share: float
    ops_attempted: float
    ops_failed: float
    #: Counts that must be identical between the untraced and traced run.
    counts: Dict[str, int]
    #: Output checks that failed (empty = correct).
    failures: List[str] = field(default_factory=list)
    #: Per-layer counts read from the program's own counters.
    layer_counts: Dict[str, float] = field(default_factory=dict)


@contextlib.contextmanager
def timed(watch: Stopwatch, tracer: Tracer):
    """The timed region: the stopwatch runs, and spans closed inside
    count towards the layers' shares."""
    tracer.timed = True
    try:
        with watch:
            yield
    finally:
        tracer.timed = False


@dataclass
class Workload:
    #: (seed, world_seed, seconds, workdir) -> inputs
    build: Callable[[int, int, float, Path], Any]
    #: (inputs, watch, tracer) -> Outcome; enters `timed` around the region
    run: Callable[[Any, Stopwatch, Tracer], Outcome]


# --------------------------------------------------------------------------
# Shared measurement helpers
# --------------------------------------------------------------------------
def premium_hop_mbps(outputs: List[ControlOutput]) -> Tuple[float, float]:
    """(Mbps x premium hops, Mbps x hops) summed over every assignment."""
    premium = total = 0.0
    for output in outputs:
        for a in output.path_result.assignments:
            hops = a.path.hops
            total += a.mbps * len(hops)
            premium += a.mbps * sum(hop[2] is LinkType.PREMIUM
                                    for hop in hops)
    return premium, total


def premium_hop_share(outputs: List[ControlOutput]) -> float:
    """Mbps-weighted share of premium hops over every assignment."""
    premium, total = premium_hop_mbps(outputs)
    return premium / total if total > 0 else 0.0


def offered_and_unassigned(outputs: List[ControlOutput]
                           ) -> Tuple[float, float]:
    """(offered Mbps, unassigned Mbps) summed over epochs."""
    offered = sum(s.demand_mbps for o in outputs for s in o.streams)
    unassigned = sum(mbps for o in outputs
                     for __, mbps in o.path_result.unassigned)
    return float(offered), float(unassigned)


def install_violations(output: ControlOutput,
                       cluster_sizes: Dict[str, int]) -> List[str]:
    """`validate_install` over one epoch's final tables and plans."""
    tables = output.path_result.forwarding_tables
    plans: Dict[str, Dict[int, Tuple[str, ...]]] = {c: {} for c in tables}
    for (sid, region), plan in output.reaction_plans.items():
        plans.setdefault(region, {})[sid] = plan.relay_regions
    streams = sorted({(a.stream.stream_id, a.stream.src, a.stream.dst)
                      for a in output.path_result.assignments})
    return [str(v) for v in validate_install(tables, plans, cluster_sizes,
                                             streams)]


#: The underlay stretches the great circle by >= 1.5 (Internet) or 1.25
#: (premium) and multiplies by lognormal jitter, sigma 0.10 resp. 0.015
#: with |z| <= 7.4 (Box-Muller on a clipped uniform): a link can undercut
#: the great circle by at most 1.5 x exp(-0.74) = 0.72, about once per
#: million samples.  Anything below 0.7 x is a path that skipped a hop.
FLOOR_SLACK = 0.7


def check_latencies(failures: List[str], underlay, label: str,
                    pair: Tuple[str, str], values: np.ndarray) -> None:
    """Latencies must be finite and no lower than the pair's propagation
    floor: light in fibre over the great circle (relayed paths are
    longer), less the model's jitter tail."""
    if values.size == 0:
        return
    floor = FLOOR_SLACK * propagation_delay_ms(underlay.region(pair[0]),
                                               underlay.region(pair[1]))
    if not np.all(np.isfinite(values)):
        failures.append(f"{label} {pair[0]}->{pair[1]}: non-finite latency")
    elif float(values.min()) < floor:
        failures.append(
            f"{label} {pair[0]}->{pair[1]}: latency {float(values.min()):.3f}"
            f" ms below the propagation floor {floor:.3f} ms")


def _session_outcome(result, engine: EventDrivenXRON, failures: List[str],
                     label: str) -> Tuple[np.ndarray, float, float]:
    """(latencies, ticks attempted, ticks blackholed) of tracked sessions."""
    chunks = []
    measured = blackholed = 0
    for pair, record in result.sessions.items():
        values = record.latency_array()
        check_latencies(failures, engine.underlay, label, pair, values)
        chunks.append(values)
        measured += len(record.times)
        blackholed += len(record.blackholed)
    latencies = np.concatenate(chunks) if chunks else np.zeros(0)
    return latencies, float(measured + blackholed), float(blackholed)


def _check_installs(failures: List[str], outputs: List[ControlOutput],
                    sizes_of: Callable[[int], Dict[str, int]],
                    label: str) -> None:
    for index, output in enumerate(outputs):
        violations = install_violations(output, sizes_of(index))
        if violations:
            failures.append(f"{label} epoch {index}: {len(violations)} "
                            f"invariant violations, first {violations[0]}")


# --------------------------------------------------------------------------
# event_n11
# --------------------------------------------------------------------------
@dataclass
class _EventInputs:
    engine: EventDrivenXRON
    start_s: float
    duration_s: float


def build_event_n11(seed: int, world_seed: int, seconds: float,
                    workdir: Path) -> _EventInputs:
    system = XRONSystem(seed=world_seed)
    # Every pair is tracked: the default fleet is capacity-starved at
    # full demand, so which sessions get a path is a lottery of the
    # run's seed, and the pooled latency of 16 tracked pairs (5-12 of
    # them bound) moved by 27 % between seeds; over all 110 it moves 2 %.
    engine = EventDrivenXRON(
        system.underlay, system.demand,
        sim_config=SimulationConfig(epoch_s=30.0, seed=seed),
        tracked_pairs=list(system.underlay.pairs))
    return _EventInputs(engine, 8 * 3600.0,
                        float(round(EVENT_SIM_S_PER_SECOND * seconds)))


def run_event_n11(inputs: _EventInputs, watch: Stopwatch,
                  tracer: Tracer) -> Outcome:
    engine = inputs.engine
    with timed(watch, tracer):
        result = engine.run(inputs.start_s, inputs.duration_s)
    engine.close()
    failures: List[str] = []
    latencies, attempted, failed = _session_outcome(
        result, engine, failures, "event_n11")
    _check_installs(failures, result.control_outputs,
                    lambda i: result.gateway_counts, "event_n11")
    return Outcome(
        sim_s=inputs.duration_s, latency_ms=latencies, weights=None,
        premium_share=premium_hop_share(result.control_outputs),
        ops_attempted=attempted, ops_failed=failed,
        counts={"events_processed": result.events_processed,
                "epochs": len(result.control_outputs), "checkpoints": 0},
        failures=failures,
        layer_counts={"sim.events": result.events_processed})


# --------------------------------------------------------------------------
# serve_chaos_n3
# --------------------------------------------------------------------------
@dataclass
class _ServeInputs:
    service: XRONService
    engine: EventDrivenXRON
    stream: Any
    slo: SLOEngine
    schedule: Any
    duration_s: float
    #: Keeps `obs.capture()` open from set-up to the end of the run.
    stack: contextlib.ExitStack


def build_serve_chaos_n3(seed: int, world_seed: int, seconds: float,
                         workdir: Path) -> _ServeInputs:
    """The deployment `repro serve --regions 3 --chaos --slo --stream
    --checkpoint` builds (cli._build_serve_system), with every pair
    tracked and the soak rotation shortened to fit the run."""
    duration_s = float(round(SERVE_SIM_S_PER_SECOND * seconds))
    regions = default_regions()[:3]
    codes = [r.code for r in regions]
    schedule = build_soak_schedule(0.0, duration_s, codes,
                                   period_s=SERVE_CHAOS_PERIOD_S)
    stack = contextlib.ExitStack()
    hub = stack.enter_context(obs.capture())
    stream = hub.attach_stream(workdir / "telemetry.jsonl",
                               max_bytes=256 * 1024,
                               meta={"command": "serve", "mode": "chaos"})
    slo = SLOEngine(badness=qoe_badness())
    underlay = topology.build_underlay(
        regions, UnderlayConfig(horizon_s=duration_s + 4 * SERVE_EPOCH_S),
        seed=world_seed)
    demand = DemandModel(regions, seed=world_seed)
    engine = EventDrivenXRON(
        underlay, demand, variant=replace(xron(), elastic=False),
        sim_config=SimulationConfig(epoch_s=SERVE_EPOCH_S, eval_step_s=60.0,
                                    seed=seed, demand_scale=0.05,
                                    initial_gateways=4),
        tracked_pairs=list(underlay.pairs),
        faults=schedule, resilience=resilience(),
        membership=membership(), regional=regional_control(), slo=slo)
    service = XRONService(engine, ServiceConfig(
        duration_s=duration_s, compress=0.0,
        checkpoint_path=workdir / "checkpoint.json", verbose=False))
    return _ServeInputs(service, engine, stream, slo, schedule, duration_s,
                        stack)


def run_serve_chaos_n3(inputs: _ServeInputs, watch: Stopwatch,
                       tracer: Tracer) -> Outcome:
    engine = inputs.engine
    hub = obs.telemetry()
    try:
        with timed(watch, tracer):
            result = inputs.service.run()
        inputs.slo.close()
        hub.detach_stream(close=True)
    finally:
        inputs.stack.close()
    failures: List[str] = []
    sim = result.eventsim
    latencies, attempted, failed = _session_outcome(
        sim, engine, failures, "serve_chaos_n3")
    # The fleet is static (elastic off) and a crash spares the last
    # survivor, so every region keeps >= 1 live gateway all run long.
    sizes = {code: 1 for code in engine.underlay.codes}
    _check_installs(failures, sim.control_outputs, lambda i: sizes,
                    "serve_chaos_n3")
    if result.stop_reason != "completed":
        failures.append(f"serve stopped with {result.stop_reason!r}")
    res = sim.resilience_counters
    scheduled = {spec.kind for spec in inputs.schedule.specs}
    fired = FaultCounters(**(sim.fault_counters or {}))
    by_kind = fired.by_kind()
    for kind in sorted(scheduled, key=lambda k: k.value):
        # The static-fleet soak never consults the provisioning seam, so
        # platform_load cannot fire here (README: not covered).
        if kind is not FaultKind.PLATFORM_LOAD and by_kind[kind.value] == 0:
            failures.append(f"scheduled fault kind {kind.value} never fired")
    if FaultKind.CONTROLLER_OUTAGE in scheduled and res["restores_warm"] < 1:
        failures.append("controller outage scheduled but no warm restore")
    if (FaultKind.CONTROL_PARTITION in scheduled
            and sim.partition_counters["partitions_healed"] < 1):
        failures.append("control partition scheduled but never healed")
    part_bytes = sum(p.stat().st_size for p in inputs.stream.paths)
    return Outcome(
        sim_s=result.sim_t1 - result.sim_t0,
        latency_ms=latencies, weights=None,
        premium_share=premium_hop_share(sim.control_outputs),
        ops_attempted=attempted, ops_failed=failed,
        counts={"events_processed": result.events_processed,
                "epochs": result.epochs,
                "checkpoints": res["checkpoints_taken"]},
        failures=failures,
        layer_counts={
            "sim.events": result.events_processed,
            "resilience.installs_committed": res["installs_committed"],
            "resilience.installs_rejected": res["installs_rejected"],
            "faults.fired": fired.total(),
            "obs.events_written": inputs.stream.events_written,
            "obs.bytes_written": part_bytes})


# --------------------------------------------------------------------------
# epoch_n11
# --------------------------------------------------------------------------
@dataclass
class _EpochInputs:
    system: XRONSystem
    simulator: Any
    duration_s: float


def build_epoch_n11(seed: int, world_seed: int, seconds: float,
                    workdir: Path) -> _EpochInputs:
    system = XRONSystem(seed=world_seed,
                        sim_config=SimulationConfig(seed=seed))
    simulator = system.simulator(xron())
    epoch_s = simulator.sim_config.epoch_s
    epochs = max(1, round(EPOCH_SIM_S_PER_SECOND * seconds / epoch_s))
    return _EpochInputs(system, simulator, epochs * epoch_s)


def run_epoch_n11(inputs: _EpochInputs, watch: Stopwatch,
                  tracer: Tracer) -> Outcome:
    simulator = inputs.simulator
    # The one result-capture wrapper the untraced run is allowed: the
    # epoch simulator does not hand its ControlOutputs back.
    outputs: List[ControlOutput] = []
    gateways: List[Dict[str, int]] = []
    inner = simulator.controller.run_epoch

    def capture(now, matrix, ready):
        output = inner(now, matrix, ready)
        outputs.append(output)
        gateways.append(dict(ready))
        return output

    simulator.controller.run_epoch = capture
    try:
        with timed(watch, tracer):
            result = simulator.run(0.0, inputs.duration_s)
            # Post-processing every figure does, inside the timed region.
            result.latency_percentiles((50.0, 99.0))
            premium = result.premium_traffic_share()
            result.qoe_summary()
    finally:
        del simulator.controller.run_epoch
        simulator.close()
    failures: List[str] = []
    for index, pair in enumerate(result.pairs):
        check_latencies(failures, inputs.system.underlay, "epoch_n11", pair,
                        result.latency_ms[index])
    _check_installs(failures, outputs,
                    lambda i: {c: max(1, n) for c, n in gateways[i].items()},
                    "epoch_n11")
    offered, unassigned = offered_and_unassigned(outputs)
    latencies, __, weights = result.pooled(weighted=True)
    return Outcome(
        sim_s=inputs.duration_s, latency_ms=latencies, weights=weights,
        premium_share=premium,
        ops_attempted=offered, ops_failed=unassigned,
        counts={"events_processed": 0, "epochs": len(outputs),
                "checkpoints": 0},
        failures=failures)


# --------------------------------------------------------------------------
# control_n100
# --------------------------------------------------------------------------
@dataclass
class _ControlInputs:
    underlay: Any
    controller: Controller
    matrices: List[TrafficMatrix]
    epoch_s: float = 300.0


def _snapshot_reports(underlay, t: float) -> List[LinkReport]:
    """Every directed link's true state at `t` as NIB reports."""
    snap = underlay.snapshot(t)
    codes = underlay.codes
    reports = []
    for lt in (LinkType.INTERNET, LinkType.PREMIUM):
        lat = snap.lat[TYPE_INDEX[lt]]
        loss = snap.loss[TYPE_INDEX[lt]]
        for i, a in enumerate(codes):
            for j, b in enumerate(codes):
                if i != j and math.isfinite(lat[i, j]):
                    reports.append(LinkReport(a, b, lt, float(lat[i, j]),
                                              float(loss[i, j]), t))
    return reports


def build_control_n100(seed: int, world_seed: int, seconds: float,
                       workdir: Path) -> _ControlInputs:
    epochs = max(2, round(CONTROL_EPOCHS_PER_SECOND * seconds))
    epoch_s = 300.0
    underlay = planet_underlay(100, world_seed,
                               horizon_s=epoch_s * (epochs + 1))
    demand = DemandModel(underlay.regions, seed=world_seed)
    peak = TrafficMatrix.from_model(demand, 8 * 3600.0)
    # Evenly spaced load factors in [0.8, 1.2] in a seeded order: every
    # seed offers the same total demand, so `served_share` does not move
    # with the draw of the factors' mean.
    factors = np.random.default_rng(seed).permutation(
        np.linspace(0.8, 1.2, epochs))
    controller = Controller(
        underlay.codes, ControlConfig(), pricing=underlay.pricing,
        workload=CohortWorkload(seed=seed, cohorts_per_pair=2), seed=seed)
    return _ControlInputs(
        underlay, controller,
        matrices=[peak.scaled(float(f)) for f in factors])


def run_control_n100(inputs: _ControlInputs, watch: Stopwatch,
                     tracer: Tracer) -> Outcome:
    controller = inputs.controller
    underlay = inputs.underlay
    gateways = {code: 8 for code in underlay.codes}
    failures: List[str] = []
    latencies: List[np.ndarray] = []
    weights: List[np.ndarray] = []
    premium = hops = offered = unassigned = 0.0
    epochs = len(inputs.matrices)
    for e in range(epochs):
        # Each epoch's reports are generated (and its output reduced)
        # between timed segments, so peak RSS is the controller's, not
        # a dozen retained report lists and ControlOutputs.
        reports = _snapshot_reports(underlay, inputs.epoch_s * e)
        with timed(watch, tracer):
            controller.nib.update_many(reports)
            output = controller.run_epoch(inputs.epoch_s * e,
                                          inputs.matrices[e], gateways)
        assignments = output.path_result.assignments
        lat = np.array([a.latency_ms for a in assignments])
        latencies.append(lat)
        weights.append(np.array([a.mbps for a in assignments]))
        epoch_premium, epoch_hops = premium_hop_mbps([output])
        premium += epoch_premium
        hops += epoch_hops
        epoch_offered, epoch_unassigned = offered_and_unassigned([output])
        offered += epoch_offered
        unassigned += epoch_unassigned
        if not np.all(np.isfinite(lat)):
            failures.append(f"control_n100 epoch {e}: non-finite latency")
        if e in (0, epochs - 1):
            # validate_install walks streams x regions in pure Python
            # (~10^7 steps at n100): first and last epoch only.
            _check_installs(failures, [output], lambda i: gateways,
                            f"control_n100[{e}]")
            for a in assignments[::97]:
                check_latencies(failures, underlay, "control_n100",
                                (a.stream.src, a.stream.dst),
                                np.array([a.latency_ms]))
        gateways = dict(output.capacity.target)
    controller.close()
    return Outcome(
        sim_s=inputs.epoch_s * epochs,
        latency_ms=np.concatenate(latencies),
        weights=np.concatenate(weights),
        premium_share=premium / hops if hops > 0 else 0.0,
        ops_attempted=offered, ops_failed=unassigned,
        counts={"events_processed": 0, "epochs": epochs, "checkpoints": 0},
        failures=failures)


#: name -> (build, run); the rationales are in `cli.WORKLOADS`.
WORKLOADS: Dict[str, Workload] = {
    "event_n11": Workload(build_event_n11, run_event_n11),
    "serve_chaos_n3": Workload(build_serve_chaos_n3, run_serve_chaos_n3),
    "epoch_n11": Workload(build_epoch_n11, run_epoch_n11),
    "control_n100": Workload(build_control_n100, run_control_n100),
}
