"""Event-driven XRON deployment.

Where `EpochSimulator` evaluates paths analytically on a grid, this
module runs the actual moving parts on the discrete-event engine:

* every 400 ms each region cluster's *representative* gateways send
  probe bursts; group state is aggregated, distributed to members and
  reported to the NIB (§4.1) — one array pass over every region's
  gateways (`dataplane.cluster.MonitoringBlock`) and one NIB batch;
* every second, tracked video sessions are forwarded hop by hop through
  the gateways' live forwarding tables — including any local fast
  reaction decisions (§4.3) — and the resulting end-to-end latency/loss
  is measured; the data packets feed passive tracking;
* every few seconds gateways fold passive windows into their estimators;
* every control epoch the controller recomputes paths, reaction plans
  and capacity from the NIB/SIB, tables are installed cluster-wide, and
  container pools scale (with provisioning delays) before the cluster
  fleet follows (§5).

The true state of every link, and every monitoring draw — a hash of
link, probe slot and burst or tick — are read out of blocks of instants
(`dataplane.probing.BurstNoise`, one for the probing instants and one
for the measurement ticks), each evaluated in one array pass over the
underlay's link table.  It is the engine for studies of
the *mechanisms* (detection timing, control loop interplay) over minutes
to hours; the epoch simulator remains the one for multi-day statistics.
What each costs is measured, not quoted here: docs/performance.md,
"Event engine".

`EventDrivenXRON` is that loop and nothing else.  Fault injection, the
safe-update & recovery layer, soft-state membership, regional control
and SLO accounting are *extensions*: plain objects that implement
whichever of `HOOKS` they need.  The engine calls hooks and never asks
which extension is present (docs/extending.md, "Adding an engine
subsystem").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Tuple)

import numpy as np

from repro.controlplane.controller import Controller, ControlOutput
from repro.controlplane.model import ControlConfig
from repro.core.config import (SimulationConfig, build_controller,
                               build_pools)
from repro.core.extensions import arm
from repro.core.variants import VariantSpec, xron
from repro.dataplane.cluster import (MonitoringBlock, RegionCluster,
                                     probe_noise)
from repro.dataplane.gateway import Gateway
from repro.dataplane.probing import BurstNoise
from repro.elastic.containers import ContainerPool
from repro.obs import telemetry as _telemetry
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.rng import RngStreams
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import RegionPair
from repro.underlay.topology import Underlay

if TYPE_CHECKING:
    from repro.faults.spec import FaultSchedule
    from repro.resilience.checkpoint import Checkpoint
    from repro.resilience.config import ResilienceConfig

#: Packets per tracked session per measurement tick (passive tracking).
_PACKETS_PER_TICK = 50
#: Seconds between passive-tracking flushes into the gateways' banks.
PASSIVE_FLUSH_S = 5.0

_TEL = _telemetry()

#: The extension protocol: the loop's phases, in the order one epoch
#: meets them.  An extension is any object with methods of some of
#: these names (no base class); the callers of one hook run in
#: `EventDrivenXRON.extensions` order.
HOOKS = (
    "schedule",              # (sim, start_s): queue own events, before epoch 1
    "unreachable",           # (now) -> regions the controller cannot reach
    "reports_lost",          # (now) -> True: no batch reaches the controller
    "reports_severed",       # (cluster, reports, now): an unreachable one's
    "reports_delivered",     # (cluster, reports, now): the NIB took this one
    "epoch_start",           # (sim, unreachable): every boundary, gated or not
    "epoch_gate",            # (now) -> what stops the controller, or None
    "epoch_skipped",         # (sim, cause, unreachable): a gate closed
    "pre_solve",             # (sim): before the controller is consulted
    "controller_restarted",  # (): `controller` was replaced (a restart)
    "clamp_ready",           # (ready, now) -> the capacity the solve may use
    "install",               # (sim, output, unreachable): replaces the
                             #   built-in install (the last one armed wins)
    "truncate_install",      # (code, cluster, entries, plans, now)
                             #   -> (entries, plans) as the push delivers them
    "install_delay",         # (code, now) -> seconds the push is held back
    "install_severed",       # (code): a push stopped at an unreachable region
    "committed",             # (sim, version): a global update went live
    "rebind",                # (best, now) -> best, before sessions follow it
    "epoch_end",             # (sim, unreachable): installed; next, checkpoint
    "sample",                # (pair, now, latency_ms, loss_rate, blackholed)
    "counters",              # () -> {`EventSimResult` field: counter dict}
    "health",                # (now) -> operator-facing state (`--health-out`)
    "checkpoint",            # (now): serialize into `checkpoint_json` (each
                             #   epoch's last act, and the service's drain)
    "restore",               # (checkpoint, t): load own share of a checkpoint
)


@dataclass
class SessionRecord:
    """Measured samples of one tracked session."""

    pair: RegionPair
    times: List[float] = field(default_factory=list)
    latency_ms: List[float] = field(default_factory=list)
    loss_rate: List[float] = field(default_factory=list)
    on_backup: List[bool] = field(default_factory=list)
    hop_counts: List[int] = field(default_factory=list)
    #: Measurement instants where the session could NOT be walked to its
    #: destination (missing table row or routing loop): the stream was
    #: blackholed for that tick.
    blackholed: List[float] = field(default_factory=list)

    def latency_array(self) -> np.ndarray:
        return np.asarray(self.latency_ms)

    def backup_fraction(self) -> float:
        return float(np.mean(self.on_backup)) if self.on_backup else 0.0

    def blackholed_seconds(self, measure_interval_s: float) -> float:
        """Blackholed-stream-seconds: failed walks x the tick length."""
        return len(self.blackholed) * measure_interval_s

    def flap_count(self) -> int:
        """Number of normal->backup transitions in the measured series."""
        flaps = 0
        previous = False
        for backed in self.on_backup:
            if backed and not previous:
                flaps += 1
            previous = backed
        return flaps


@dataclass
class EventSimResult:
    sessions: Dict[RegionPair, SessionRecord]
    control_outputs: List[ControlOutput]
    probe_bytes: int
    detections: int
    gateway_counts: Dict[str, int]
    events_processed: int
    #: What each armed extension actually did (its `counters` hook).
    fault_counters: Optional[Dict[str, int]] = None
    resilience_counters: Optional[Dict[str, int]] = None
    membership_counters: Optional[Dict[str, int]] = None
    partition_counters: Optional[Dict[str, int]] = None


class EventDrivenXRON:
    """The full system on the event engine."""

    def __init__(self, underlay: Underlay, demand: DemandModel,
                 variant: Optional[VariantSpec] = None,
                 sim_config: Optional[SimulationConfig] = None,
                 control_config: Optional[ControlConfig] = None,
                 tracked_pairs: Optional[List[RegionPair]] = None,
                 measure_interval_s: float = 1.0,
                 faults: Optional[FaultSchedule] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 sib_params: Optional[Dict[str, int]] = None,
                 slo: Optional[object] = None,
                 membership: Optional[bool] = None,
                 regional: Optional[bool] = None):
        """Each of the five optional subsystems becomes one extension
        (`repro.core.extensions.arm`): passing its config (or True,
        for the two without settings) arms it, ``None`` leaves it out,
        and a run without it is byte-identical to a build that never
        had it.  `faults` is a `FaultSchedule` of timed failures
        (`repro.faults`; an empty one is an absent one); `resilience`
        the safe-update & recovery layer (`repro.resilience`);
        `membership` the controller's soft-state gateway liveness and
        `regional` the per-partition degraded-mode sub-controllers
        (`repro.controlplane`; regional control needs `resilience`,
        whose install versions its heal-time reconciliation rides);
        `slo` a `repro.obs.slo.SLOEngine` fed every tracked-session
        measurement sample.

        `sib_params` overrides the controller's SIB keyword arguments
        (``refit_every``, ``min_history``) so short-epoch deployments
        can fit the demand model within the run.
        """
        self.underlay = underlay
        self.demand = demand
        self.variant = variant if variant is not None else xron()
        if not self.variant.overlay_relaying:
            raise ValueError(
                "the event simulator models the overlay variants; use "
                "EpochSimulator for the direct-path baselines")
        self.sim_config = (sim_config if sim_config is not None
                           else SimulationConfig())
        self.control_config = (control_config if control_config is not None
                               else ControlConfig())
        self.measure_interval_s = measure_interval_s
        self.skipped_epochs = 0
        self._sib_params = dict(sib_params) if sib_params else None
        self.rng = RngStreams(self.sim_config.seed)
        #: Control epochs run so far (gated ones do not count).
        self.epoch_seq = 0
        #: The last checkpoint an extension serialized (None until one
        #: did).  The JSON string IS the artifact a warm restart loads,
        #: so every restore exercises the round trip.
        self.checkpoint_json: Optional[str] = None

        self.controller = self.make_controller()
        reaction = replace(
            self.sim_config.reaction,
            enabled=(self.sim_config.reaction.enabled
                     and self.variant.fast_reaction))
        noise = probe_noise(underlay, self.sim_config.monitoring, self.rng)
        self.clusters: Dict[str, RegionCluster] = {
            code: RegionCluster(
                code, underlay,
                initial_gateways=self.sim_config.initial_gateways,
                monitoring=self.sim_config.monitoring,
                reaction=reaction, noise=noise)
            for code in underlay.codes}
        #: Every gateway's monitoring state, probed as one block.
        self.monitoring_block = MonitoringBlock(list(self.clusters.values()))
        #: The tracked sessions' packet losses on each link per tick.
        self._passive = BurstNoise(underlay, self.rng, "measure", 1,
                                   _PACKETS_PER_TICK, measure_interval_s)
        self._passive_at = {hop: k for k, hop
                            in enumerate(self._passive.hops)}
        self.pools: Dict[str, ContainerPool] = build_pools(
            underlay.codes, self.rng, self.sim_config, self.control_config)

        if tracked_pairs is None:
            tracked_pairs = sorted(
                demand.pairs, key=lambda p: -demand.pair_scale(*p))[:4]
        known = set(underlay.pairs)
        for pair in tracked_pairs:
            if pair not in known:
                raise ValueError(
                    f"tracked pair {pair!r} is not a directed pair of "
                    f"this underlay's regions {underlay.codes}")
        self.sessions: Dict[RegionPair, SessionRecord] = {
            pair: SessionRecord(pair) for pair in tracked_pairs}
        #: Controller stream id currently carrying each tracked pair.
        self.session_stream: Dict[RegionPair, Optional[int]] = {
            pair: None for pair in tracked_pairs}
        self.control_outputs: List[ControlOutput] = []

        #: The compiled schedule (a `FaultInjector`; an empty one answers
        #: every query "nothing") and the list hooks are resolved from.
        self.faults, self.extensions = arm(
            self, faults=faults, resilience=resilience,
            membership=membership, regional=regional, slo=slo)
        self._bound: Optional[Dict[str, List[Callable]]] = None

    def make_controller(self, codes: Optional[List[str]] = None, *,
                        seed: Optional[int] = None) -> Controller:
        """A controller configured like this deployment's: boot's, a
        modeled restart's replacement and — over its own region set
        and seed — a partition's sub-controller."""
        return build_controller(
            self.underlay.codes if codes is None else codes,
            self.control_config, self.underlay.pricing, self.sim_config,
            self.variant, self._sib_params, seed=seed)

    # ----------------------------------------------------------- extensions
    def hooks(self, name: str) -> List[Callable]:
        """The `name` methods of the extensions that have one, in
        `extensions` order.  Resolved once, on first use (`schedule` or
        `restore`), so an extension appended before then takes part."""
        if self._bound is None:
            self._bound = {
                hook: [getattr(ext, hook) for ext in self.extensions
                       if hasattr(ext, hook)]
                for hook in HOOKS}
        return self._bound[name]

    def fire(self, name: str, *args) -> None:
        """Call every `name` hook for its effect."""
        for hook in self.hooks(name):
            hook(*args)

    def gather(self, name: str, *args) -> Dict[str, object]:
        """Merge the dicts the `name` hooks return."""
        doc: Dict[str, object] = {}
        for hook in self.hooks(name):
            doc.update(hook(*args))
        return doc

    # ------------------------------------------------------------------ api
    def schedule(self, sim: Simulator, start_s: float
                 ) -> Dict[str, PeriodicTask]:
        """Put the deployment's whole timeline on `sim`.

        The one declaration of the schedule, shared by the batch `run`
        and `XRONService`: whatever the extensions queue (unfired
        gateway-crash windows), the first control epoch (run here,
        directly), and the four periodic tasks, which are returned by
        component name.  Equal-time events fire by priority: crashes
        (-1) hit before the controller acts (0), tables exist before
        probing (1), passive flush (2) and measurement (3).
        """
        self.fire("schedule", sim, start_s)
        self._control_epoch(sim)
        return {
            "controller": sim.every(
                self.sim_config.epoch_s, lambda: self._control_epoch(sim),
                start_delay=self.sim_config.epoch_s, priority=0),
            "probing": sim.every(
                self.sim_config.monitoring.burst_interval_s,
                lambda: self._probe_round(sim), priority=1),
            "passive-flush": sim.every(
                PASSIVE_FLUSH_S, lambda: self._flush_passive(sim),
                start_delay=PASSIVE_FLUSH_S, priority=2),
            "workload": sim.every(
                self.measure_interval_s, lambda: self._measure(sim),
                start_delay=self.measure_interval_s, priority=3),
        }

    def run(self, start_s: float, duration_s: float) -> EventSimResult:
        sim = Simulator(start_time=start_s)
        # The final flush runs on EVERY exit path: without it, an
        # exception mid-run (or simply the tail of the run after the
        # last epoch boundary) would leave the attached telemetry
        # stream's last metric deltas unwritten.
        try:
            self.schedule(sim, start_s)
            sim.run_until(start_s + duration_s)
        finally:
            if _TEL.enabled:
                _TEL.flush_stream(sim.now)
        return self.result(sim.events_processed)

    def result(self, events_processed: int) -> EventSimResult:
        """The deployment's accumulated outcome, in the batch shape."""
        return EventSimResult(
            sessions=self.sessions,
            control_outputs=self.control_outputs,
            probe_bytes=sum(c.probe_bytes() for c in self.clusters.values()),
            detections=sum(c.degradation_detections()
                           for c in self.clusters.values()),
            gateway_counts={code: c.size
                            for code, c in self.clusters.items()},
            events_processed=events_processed, **self.gather("counters"))

    def health(self, now: float) -> Dict[str, object]:
        """The armed extensions' state at `now` (`serve --health-out`)."""
        return self.gather("health", now)

    def take_checkpoint(self, now: float) -> None:
        """Serialize the deployment into `checkpoint_json` now (a no-op
        unless an armed extension checkpoints)."""
        self.fire("checkpoint", now)

    def restore(self, checkpoint: Checkpoint, t: float) -> None:
        """Warm-boot this freshly built deployment from `checkpoint`, so
        that `schedule(sim, t)` continues the run that took it: the
        epoch sequence resumes, and each extension loads what it owns
        (controller state, the last committed install and its version;
        fired fault windows)."""
        self.epoch_seq = checkpoint.epoch_seq
        self.checkpoint_json = checkpoint.dumps()
        self.fire("restore", checkpoint, t)

    def close(self) -> None:
        """Teardown for every exit path (idempotent)."""
        self.controller.close()

    def __enter__(self) -> "EventDrivenXRON":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ monitoring
    def unreachable(self, now: float) -> frozenset:
        """Regions the global controller cannot reach at `now`: their
        reports do not arrive and nothing can be pushed to them."""
        return frozenset().union(
            *(hook(now) for hook in self.hooks("unreachable")))

    def _probe_round(self, sim: Simulator) -> None:
        """One probing instant: the monitoring block's pass over every
        region, then one NIB batch of the reachable regions' reports.
        The per-region hooks get their region's slice of the reports,
        cut only for a hook that is there to take it."""
        now = sim.now
        unreachable = self.unreachable(now)
        lost = any(hook(now) for hook in self.hooks("reports_lost"))
        block = self.monitoring_block
        reports, bounds = block.probe(now)
        severed = [k for k, cluster in enumerate(block.clusters)
                   if cluster.region in unreachable] if unreachable else []
        if severed and self.hooks("reports_severed"):
            for k in severed:
                self.fire("reports_severed", block.clusters[k],
                          reports.take(slice(bounds[k], bounds[k + 1])), now)
        if lost or len(severed) == len(block.clusters):
            return
        if severed:
            reached = np.ones(len(reports), dtype=bool)
            for k in severed:
                reached[bounds[k]:bounds[k + 1]] = False
            self.controller.nib.update_many(reports.take(reached))
        else:
            self.controller.nib.update_many(reports)
        delivered = self.hooks("reports_delivered")
        if delivered:
            for k, cluster in enumerate(block.clusters):
                if k in severed:
                    continue
                part = reports.take(slice(bounds[k], bounds[k + 1]))
                for hook in delivered:
                    hook(cluster, part, now)

    def _flush_passive(self, sim: Simulator) -> None:
        for cluster in self.clusters.values():
            cluster.flush_passive(sim.now)

    # --------------------------------------------------------- control epoch
    def demand_matrix(self, now: float) -> TrafficMatrix:
        """The demand measured over the epoch that just ended."""
        return TrafficMatrix.from_model(self.demand, now,
                                        self.sim_config.demand_scale)

    def ready_counts(self, codes, now: float) -> Dict[str, int]:
        """Ready containers per region of `codes` (never below one)."""
        return {code: max(1, self.pools[code].ready_count(now))
                for code in codes}

    def _control_epoch(self, sim: Simulator) -> None:
        now = sim.now
        unreachable = self.unreachable(now)
        self.fire("epoch_start", sim, unreachable)
        for gate in self.hooks("epoch_gate"):
            cause = gate(now)
            if cause is not None:
                # Controller unavailable: the data plane soldiers on with
                # the last-installed tables and plans, reacting locally.
                self.skipped_epochs += 1
                self.fire("epoch_skipped", sim, cause, unreachable)
                return
        self.fire("pre_solve", sim)
        self.epoch_seq += 1
        # The very first epoch needs NIB state: run one probing round.
        if len(self.controller.nib) == 0:
            self._probe_round(sim)
        matrix = self.demand_matrix(now)
        ready = self.ready_counts(self.underlay.codes, now)
        for hook in self.hooks("clamp_ready"):
            ready = hook(ready, now)
        output = self.controller.run_epoch(now, matrix, ready)
        self.control_outputs.append(output)

        if self.variant.elastic:
            for code, target in output.capacity.target.items():
                if code not in unreachable:
                    self.pools[code].scale_to(target, now)
            if _TEL.enabled:
                _TEL.event("autoscale", t=now, policy="capacity_control",
                           target=output.capacity.total_target(),
                           ready=sum(ready.values()))
        # The fleet follows the pool's *ready* container count.
        for code, cluster in self.clusters.items():
            if code not in unreachable:
                cluster.scale_to(max(1, self.pools[code].ready_count(now)))

        # Install forwarding tables and per-region reaction plans.
        install = (self.hooks("install") or [self._install])[-1]
        install(sim, output, unreachable)
        self.fire("epoch_end", sim, unreachable)
        self.take_checkpoint(now)
        if _TEL.enabled:
            # Epoch boundary: push the accumulated metric deltas to an
            # attached telemetry stream (no-op without one).
            _TEL.flush_stream(now)

    # --------------------------------------------------------------- install
    def _install(self, sim: Simulator, output: ControlOutput,
                 unreachable: frozenset) -> None:
        """The built-in install (the paper's): every reachable region
        takes its table and plans as its push arrives — at once, or late
        when a delivery hook holds it back — under the epoch's sequence
        number, and tracked sessions follow the new stream ids
        immediately."""
        tables = output.path_result.forwarding_tables
        plans_by_region = output.plans_by_region
        for code in self.clusters:
            entries, plans, delay = tables[code], plans_by_region[code], 0.0
            if code not in unreachable:
                entries, plans, delay = self.deliver(code, entries, plans,
                                                     sim.now)
            self.land(sim, code, entries, plans, self.epoch_seq, delay,
                      unreachable)
        self.rebind_sessions(output, sim.now)

    def land(self, sim: Simulator, code: str,
             entries: Dict[int, Tuple[str, LinkType]],
             plans: Dict[int, Tuple[str, ...]], version: int,
             delay: float = 0.0,
             unreachable: frozenset = frozenset()) -> None:
        """Land one region's update under `version` — the step every
        install strategy ends in: now, or `delay` seconds from now (the
        delay its caller already has from `deliver` / `install_delay`;
        those hooks count every call).  A push to a region in
        `unreachable` stops at the partition edge; one that arrives
        after a newer version landed is refused by the region's table
        (`ForwardingTable.install`), the only supersession rule."""
        if code in unreachable:
            self.fire("install_severed", code)
            return
        cluster = self.clusters[code]

        def arrive() -> None:
            cluster.install(entries, plans, version=version, now=sim.now)
        if delay > 0.0:
            sim.schedule(delay, arrive, priority=0)
        else:
            arrive()

    def deliver(self, code: str, entries: Dict[int, Tuple[str, LinkType]],
                plans: Dict[int, Tuple[str, ...]], now: float):
        """One region's update as its push delivers it at `now`:
        ``(entries, plans, delay_s)`` after every delivery hook — the
        one place install strategies meet partial and delayed pushes."""
        for hook in self.hooks("truncate_install"):
            entries, plans = hook(code, self.clusters[code], entries, plans,
                                  now)
        return entries, plans, self.install_delay(code, now)

    def install_delay(self, code: str, now: float) -> float:
        """Seconds a push to `code` is held back at `now` (0.0 = none)."""
        return max((hook(code, now)
                    for hook in self.hooks("install_delay")), default=0.0)

    # -------------------------------------------------------------- sessions
    def best_streams(self, output: ControlOutput) -> Dict[RegionPair, int]:
        """Per tracked pair, the id of its highest-rate assigned stream
        (the first one on a tie)."""
        table, result = output.table, output.path_result
        codes, stream_ids = table.codes, table.stream_id.tolist()
        src, dst = table.src.tolist(), table.dst.tolist()
        best: Dict[RegionPair, Tuple[int, float]] = {}
        for p, mbps in zip(result.position.tolist(), result.mbps.tolist()):
            key = (codes[src[p]], codes[dst[p]])
            if key in self.sessions and (
                    key not in best or mbps > best[key][1]):
                best[key] = (stream_ids[p], mbps)
        return {pair: sid for pair, (sid, __) in best.items()}

    def rebind_sessions(self, output: ControlOutput, now: float) -> None:
        """Move every tracked session to this update's stream ids (a
        pair it no longer carries is unbound); `rebind` hooks may edit
        the binding first, e.g. to keep the pairs they own in place."""
        best = self.best_streams(output)
        for hook in self.hooks("rebind"):
            best = hook(best, now)
        for pair in self.sessions:
            self.bind_session(pair, best.get(pair), now)

    def bind_session(self, pair: RegionPair, stream_id: Optional[int],
                     now: float, **trace) -> bool:
        """Bind one tracked session; True when that moved it."""
        previous = self.session_stream[pair]
        if stream_id == previous:
            return False
        if _TEL.enabled:
            _TEL.counter("eventsim.session_rebinds").inc()
            _TEL.event("path_decision", t=now, src=pair[0], dst=pair[1],
                       stream=stream_id, previous_stream=previous, **trace)
        self.session_stream[pair] = stream_id
        return True

    # ----------------------------------------------------------- measurement
    def _measure(self, sim: Simulator) -> None:
        """Walk every tracked session and book its packets on each hop's
        deciding gateway; a hop loses the tick's draw on its link (one
        per link and tick, shared by the sessions crossing it)."""
        now = sim.now
        latency_ms, loss_rate, __, lost = self._passive.at(now)
        latency_ms, loss_rate, lost_packets = (
            latency_ms.tolist(), loss_rate.tolist(), lost[0].tolist())
        at = self._passive_at
        sample = self.hooks("sample")
        for pair, record in self.sessions.items():
            sid = self.session_stream[pair]
            if sid is None:
                continue
            hops = self._walk(pair, sid, now)
            if hops is None:
                # Missing table row or routing loop: the stream had
                # nowhere to go this tick (blackholed-stream-seconds).
                record.blackholed.append(now)
                for hook in sample:
                    hook(pair, now, None, None, True)
                continue
            latency = 0.0
            survive = 1.0
            on_backup = False
            for (a, b, lt, via_backup, gateway) in hops:
                k = at[(a, b, lt)]
                hop_lat = latency_ms[k]
                latency += hop_lat
                survive *= 1.0 - loss_rate[k]
                on_backup = on_backup or via_backup
                # Passive tracking: account the session's packets on the
                # gateway that actually made the forwarding decision
                # (round robin), not an arbitrary cluster sibling.
                gateway.passive.record((a, b, lt), _PACKETS_PER_TICK,
                                       lost_packets[k], hop_lat)
            record.times.append(now)
            record.latency_ms.append(latency)
            record.loss_rate.append(1.0 - survive)
            record.on_backup.append(on_backup)
            record.hop_counts.append(len(hops))
            for hook in sample:
                hook(pair, now, latency, 1.0 - survive, False)

    def _walk(self, pair: RegionPair, stream_id: int,
              now: Optional[float] = None
              ) -> Optional[List[Tuple[str, str, LinkType, bool, Gateway]]]:
        """Follow the live forwarding decisions from source to destination.

        Each hop records the gateway that made the `ForwardDecision`, so
        measurement can book passive samples on the right container.
        """
        src, dst = pair
        hops: List[Tuple[str, str, LinkType, bool, Gateway]] = []
        current = src
        for __ in range(8):  # generous loop guard
            if current == dst:
                return hops
            resolved = self.clusters[current].resolve(stream_id, now)
            if resolved is None:
                return None
            gateway, decision = resolved
            hops.append((current, decision.next_hop, decision.link_type,
                         decision.via_backup, gateway))
            current = decision.next_hop
        return None  # routing loop: drop the sample
