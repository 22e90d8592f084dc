"""Always-on service mode: the event-driven deployment as an asyncio app.

`XRONService` runs the *same* timeline as the batch
`EventDrivenXRON.run` — one `repro.sim.engine.Simulator` carrying the
schedule `EventDrivenXRON.schedule` declares — and adds only what a
long-lived production control loop needs on top:

* **A paced driver** steps the simulator from an asyncio coroutine, one
  event at a time in the engine's ``(time, priority, seq)`` order, so a
  served window is the batch window by construction.
* **Clock compression** paces virtual time against the wall:
  ``compress`` sim-seconds pass per wall-second (``0`` = flat out, the
  test mode).  The driver tracks how far it falls behind (`max_lag_s`).
* **Crash recovery is the live story**: each resilience checkpoint the
  controller takes is persisted to disk as a *service envelope*
  (atomic rename), a SIGTERM drains through one final checkpoint, and
  `restore_from` boots a fresh process from the envelope through
  `EventDrivenXRON.restore` — controller/NIB/SIB state, the last
  committed tables, and the fault injector's progress, so already-fired
  fault windows are never replayed.
* **Heartbeats** sample process health (RSS, open fds, child
  processes, clock lag) into the telemetry stream on a fixed cadence —
  the soak leak detector and the CI soak job assert on them.

`build_soak_schedule` generates the deterministic rotating chaos
pattern the soak mode runs under.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.eventsim import EventDrivenXRON, EventSimResult
from repro.faults import spec as fault_spec
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.obs import telemetry as _telemetry
from repro.resilience.checkpoint import Checkpoint
from repro.sim.engine import PeriodicTask, Simulator

_TEL = _telemetry()

#: Service checkpoint envelope schema version.
ENVELOPE_SCHEMA = 1


# --------------------------------------------------------------------------
# Process health sampling
# --------------------------------------------------------------------------
def _rss_kb() -> Optional[int]:
    """Resident set size in kB (Linux /proc; None where unavailable)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        try:
            import resource
            usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # ru_maxrss is kB on Linux, bytes on macOS.
            return usage // 1024 if sys.platform == "darwin" else usage
        except Exception:
            return None


def _open_fds() -> Optional[int]:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def _live_children() -> int:
    import multiprocessing
    return len(multiprocessing.active_children())


def health_sample() -> Dict[str, Any]:
    """One process-health observation (heartbeat payload)."""
    return {"rss_kb": _rss_kb(), "open_fds": _open_fds(),
            "children": _live_children()}


# --------------------------------------------------------------------------
# Soak chaos schedule
# --------------------------------------------------------------------------
#: Quiet seconds before a soak schedule's first fault.
_SOAK_LEAD_S = 120.0

#: One soak-rotation builder per fault kind: (start_s, region,
#: all_regions) -> FaultSpec.  Keyed on the `FaultKind` taxonomy itself
#: so a kind added to the enum without a builder here fails LOUDLY (the
#: rotation lookup raises KeyError) instead of silently never soaking.
_SOAK_BUILDERS: Dict["fault_spec.FaultKind", Any] = {
    fault_spec.FaultKind.GATEWAY_CRASH:
        lambda t, r, rs: fault_spec.gateway_crash(t, 60.0, r, count=1),
    fault_spec.FaultKind.PROBE_BLACKOUT:
        lambda t, r, rs: fault_spec.probe_blackout(t, 90.0, region=r),
    fault_spec.FaultKind.REPORT_DROP:
        lambda t, r, rs: fault_spec.report_drop(t, 60.0, region=r),
    fault_spec.FaultKind.REPORT_STALENESS:
        lambda t, r, rs: fault_spec.report_staleness(t, 60.0, 30.0, region=r),
    fault_spec.FaultKind.INSTALL_DELAY:
        lambda t, r, rs: fault_spec.install_delay(t, 60.0, 5.0, region=r),
    fault_spec.FaultKind.INSTALL_PARTIAL:
        lambda t, r, rs: fault_spec.install_partial(t, 60.0, 0.5, region=r),
    fault_spec.FaultKind.PLATFORM_LOAD:
        lambda t, r, rs: fault_spec.platform_load(t, 120.0, 3.0, region=r),
    fault_spec.FaultKind.CONTROLLER_OUTAGE:
        lambda t, r, rs: fault_spec.controller_outage(t, t + 90.0),
    # A partition needs a region SET: the rotation region plus its
    # successor, so multi-region partitions get soaked too.
    fault_spec.FaultKind.CONTROL_PARTITION:
        lambda t, r, rs: fault_spec.control_partition(
            t, 90.0, sorted({r, rs[(rs.index(r) + 1) % len(rs)]})),
    fault_spec.FaultKind.MEMBERSHIP_CHURN:
        lambda t, r, rs: fault_spec.membership_churn(t, 90.0, region=r),
}


def build_soak_schedule(start_s: float, duration_s: float,
                        regions: List[str], *,
                        period_s: float = 600.0) -> FaultSchedule:
    """A deterministic rotating chaos schedule for soak runs.

    Every `period_s` from `_SOAK_LEAD_S` in one fault fires, cycling
    through the *entire*
    `FaultKind` taxonomy in enum order (crashes, blackouts, report
    loss/staleness, install delay/partial, provisioning storms,
    controller outages, control partitions, membership churn) and
    rotating the target region.  The rotation is derived from the
    taxonomy, not a hand-kept list, so new fault kinds join the soak
    automatically — and a kind without a `_SOAK_BUILDERS` entry raises
    instead of silently never firing.  Pure data — no RNG — so the same
    window always produces the same schedule and a restored run can
    rebuild it exactly.
    """
    if not regions:
        raise ValueError("need at least one region")
    kinds = list(fault_spec.FaultKind)
    specs: List[FaultSpec] = []
    k = 0
    t = start_s + _SOAK_LEAD_S
    while t + 180.0 <= start_s + duration_s:
        kind = kinds[k % len(kinds)]
        region = regions[k % len(regions)]
        specs.append(_SOAK_BUILDERS[kind](t, region, regions))
        k += 1
        t += period_s
    return FaultSchedule.of(*specs)


# --------------------------------------------------------------------------
# The service
# --------------------------------------------------------------------------
@dataclass
class ServiceConfig:
    """How `XRONService` runs one soak window."""

    #: Simulated seconds to run for (from the resolved start time).
    duration_s: float
    #: Sim-seconds per wall-second (0 = flat out; 48 = a 2-day soak in
    #: one wall hour).
    compress: float = 0.0
    #: Simulated seconds between heartbeat/health records.
    heartbeat_s: float = 300.0
    #: Where service checkpoint envelopes are persisted (None = memory
    #: only, like the batch engine).
    checkpoint_path: Optional[Union[str, Path]] = None
    #: Print heartbeat lines to stderr.
    verbose: bool = False


@dataclass
class ServiceResult:
    """What one service run produced (plus the batch-shaped result)."""

    stop_reason: str
    sim_t0: float
    sim_t1: float
    wall_s: float
    events_processed: int
    epochs: int
    heartbeats: int
    max_lag_s: float
    checkpoint_path: Optional[str]
    #: First and last health samples (RSS/fd/children drift bounds).
    health_first: Optional[Dict[str, Any]]
    health_last: Optional[Dict[str, Any]]
    eventsim: EventSimResult

    @property
    def drained(self) -> bool:
        """Whether the run ended through the graceful drain path.

        Every returned result has drained (checkpoint, telemetry flush,
        pool teardown) — a failed callback raises `ServiceError`
        instead of returning — so only the failure reason is excluded.
        """
        return self.stop_reason != "component-error"


class ServiceError(RuntimeError):
    """A scheduled callback failed; the run was drained early."""


class XRONService:
    """`EventDrivenXRON` as a long-running, drainable asyncio service."""

    def __init__(self, system: EventDrivenXRON, config: ServiceConfig, *,
                 start_s: float = 0.0):
        if config.compress < 0:
            raise ValueError(
                f"compress must be >= 0, got {config.compress}")
        self.system = system
        self.config = config
        self._start_s = float(start_s)
        #: The simulator of the current (or last) run; tests read `.now`.
        self.clock: Optional[Simulator] = None
        self.heartbeats: List[Dict[str, Any]] = []
        #: Worst wall-clock lag behind the compressed schedule, seconds.
        self.max_lag_s = 0.0
        self._stop_event: Optional[asyncio.Event] = None
        self._stop_reason: Optional[str] = None
        self._persisted_json: Optional[str] = None
        #: The scheduled periodic tasks by component name (heartbeat
        #: payload: their fire counts).
        self._tasks: Dict[str, PeriodicTask] = {}

    # ------------------------------------------------------------- lifecycle
    def request_stop(self, reason: str = "requested") -> None:
        """Begin a graceful drain (signal handlers route here)."""
        if self._stop_reason is None:
            self._stop_reason = reason
        if self._stop_event is not None:
            self._stop_event.set()

    def run(self) -> ServiceResult:
        """`asyncio.run` wrapper installing SIGTERM/SIGINT drain handlers."""
        return asyncio.run(self._run_with_signals())

    async def _run_with_signals(self) -> ServiceResult:
        loop = asyncio.get_running_loop()
        installed: List[signal.Signals] = []
        for signame in ("SIGTERM", "SIGINT"):
            signum = getattr(signal, signame, None)
            if signum is None:
                continue
            try:
                loop.add_signal_handler(
                    signum, self.request_stop, signame)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or unsupported platform
        try:
            return await self.run_async()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    # ------------------------------------------------------------------ run
    async def run_async(self) -> ServiceResult:
        """Run the service window; always drains before returning."""
        sys_ = self.system
        cfg = self.config
        sim = Simulator(self._start_s)
        self.clock = sim
        stop = asyncio.Event()
        self._stop_event = stop
        if self._stop_reason is not None:
            stop.set()  # stop requested before start: drain immediately
        wall0 = time.monotonic()
        error: Optional[Exception] = None
        try:
            reason = await self._drive(
                sim, self._start_s + cfg.duration_s, stop, wall0)
        except Exception as exc:
            error = exc
            reason = "component-error"
        if self._stop_reason is None:
            self._stop_reason = reason
        self._drain(sim)
        result = ServiceResult(
            stop_reason=self._stop_reason,
            sim_t0=self._start_s, sim_t1=sim.now,
            wall_s=time.monotonic() - wall0,
            events_processed=sim.events_processed,
            epochs=len(sys_.control_outputs),
            heartbeats=len(self.heartbeats),
            max_lag_s=self.max_lag_s,
            checkpoint_path=(str(cfg.checkpoint_path)
                             if cfg.checkpoint_path else None),
            health_first=(self.heartbeats[0]["health"]
                          if self.heartbeats else None),
            health_last=(self.heartbeats[-1]["health"]
                         if self.heartbeats else None),
            eventsim=sys_.result(sim.events_processed))
        if error is not None:
            raise ServiceError(
                f"a scheduled callback failed: {error!r}") from error
        return result

    async def _drive(self, sim: Simulator, end_s: float,
                     stop: asyncio.Event, wall0: float) -> str:
        """Schedule the system plus a heartbeat on `sim`, then step it
        until `end_s` or `stop`; returns why.

        ``"completed"`` — the next event lies past `end_s` (the clock
        is left exactly at `end_s`); ``"stopped"`` — `stop` was set.
        The heartbeat (priority 5, after every system task at equal
        times) is service-only and records no simulation state.
        """
        if stop.is_set():
            return "stopped"
        cfg = self.config
        self._tasks = self.system.schedule(sim, self._start_s)
        self._persist_fresh_checkpoint(sim.now)
        self._tasks["heartbeat"] = sim.every(
            cfg.heartbeat_s, lambda: self._heartbeat(sim, wall0),
            start_delay=cfg.heartbeat_s, priority=5)
        wall_anchor = time.monotonic()
        sim_anchor = sim.now
        steps = 0
        while not stop.is_set():
            t_next = sim.next_time()
            if t_next is None or t_next > end_s:
                sim.run_until(end_s)  # nothing left to fire: sets the clock
                return "completed"
            if cfg.compress > 0:
                target = wall_anchor + (t_next - sim_anchor) / cfg.compress
                lag = time.monotonic() - target
                if lag < 0:
                    try:  # interruptible: a stop request ends the sleep
                        await asyncio.wait_for(stop.wait(), timeout=-lag)
                    except asyncio.TimeoutError:
                        pass
                elif lag > self.max_lag_s:
                    self.max_lag_s = lag
            steps += 1
            if steps % 256 == 0:
                # Unpaced mode never otherwise yields to the loop: give
                # signal handlers and the stop event a chance to land.
                await asyncio.sleep(0)
            if not stop.is_set():
                sim.step()
                self._persist_fresh_checkpoint(sim.now)
        return "stopped"

    def _persist_fresh_checkpoint(self, now: float) -> None:
        """Write an envelope when the last event took a new checkpoint."""
        latest = self.system.checkpoint_json
        if (self.config.checkpoint_path is not None and latest is not None
                and latest is not self._persisted_json):
            self._write_envelope(now)

    def _heartbeat(self, clock: Simulator, wall0: float) -> None:
        health = health_sample()
        beat: Dict[str, Any] = {
            "t": clock.now,
            "wall_s": round(time.monotonic() - wall0, 3),
            "epochs": len(self.system.control_outputs),
            "events": clock.events_processed,
            "max_lag_s": round(self.max_lag_s, 3),
            "health": health,
            "components": {name: task.fire_count
                           for name, task in self._tasks.items()},
        }
        self.heartbeats.append(beat)
        if _TEL.enabled:
            _TEL.event("service_heartbeat", t=clock.now,
                       wall_s=beat["wall_s"], epochs=beat["epochs"],
                       events=beat["events"],
                       max_lag_s=beat["max_lag_s"], **health)
            _TEL.flush_stream(clock.now)
        if self.config.verbose:
            print(f"[serve] t={clock.now:,.0f}s wall={beat['wall_s']:.1f}s "
                  f"epochs={beat['epochs']} events={beat['events']:,} "
                  f"rss={health['rss_kb']}kB fds={health['open_fds']} "
                  f"children={health['children']}", file=sys.stderr)

    # ----------------------------------------------------------------- drain
    def _drain(self, clock: Simulator) -> None:
        """Graceful teardown: checkpoint, flush telemetry, close the
        engine.

        Runs on EVERY exit path (normal completion, SIGTERM, callback
        failure) so a soak never strands stream handles or unflushed
        metric deltas.
        """
        sys_ = self.system
        sys_.take_checkpoint(clock.now)
        if (self.config.checkpoint_path is not None
                and sys_.checkpoint_json is not None):
            self._write_envelope(clock.now)
        if _TEL.enabled:
            health = health_sample()
            _TEL.event("service_shutdown", t=clock.now,
                       reason=self._stop_reason,
                       epochs=len(sys_.control_outputs),
                       events=clock.events_processed,
                       heartbeats=len(self.heartbeats),
                       max_lag_s=round(self.max_lag_s, 3), **health)
            _TEL.flush_stream(clock.now)
        sys_.close()

    # ------------------------------------------------------------ checkpoint
    def _write_envelope(self, now: float) -> Path:
        """Persist the current checkpoint as a service envelope (atomic)."""
        sys_ = self.system
        path = Path(self.config.checkpoint_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "record": "service_checkpoint",
            "schema": ENVELOPE_SCHEMA,
            "sim_t": sys_.checkpoint_t,
            "epoch_seq": sys_.epoch_seq,
            "seed": sys_.sim_config.seed,
            "schedule": sys_.faults.schedule.to_json(),
            "checkpoint": sys_.checkpoint_json,
        }
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("w") as fh:
            json.dump(envelope, fh)
        os.replace(tmp, path)
        self._persisted_json = sys_.checkpoint_json
        if _TEL.enabled:
            _TEL.event("service_checkpoint_persisted", t=now,
                       path=str(path), epoch_seq=sys_.epoch_seq)
        return path

    @staticmethod
    def load_envelope(path: Union[str, Path]) -> Dict[str, Any]:
        """Read and sanity-check a service checkpoint envelope."""
        with Path(path).open() as fh:
            doc = json.load(fh)
        if doc.get("record") != "service_checkpoint":
            raise ValueError(f"{path} is not a service checkpoint envelope")
        if int(doc.get("schema", -1)) > ENVELOPE_SCHEMA:
            raise ValueError(
                f"{path} uses envelope schema {doc['schema']}; this build "
                f"reads <= {ENVELOPE_SCHEMA}")
        return doc

    def restore_from(self, envelope: Dict[str, Any]) -> float:
        """Warm-boot this (freshly built) service from an envelope.

        `EventDrivenXRON.restore` loads the inner checkpoint: controller
        state (NIB/SIB/workload), the last committed tables and plans
        of every cluster, the two-phase installer's version counters so
        new epochs supersede the restored install, and the fault
        injector's progress — counters and fired one-shot windows — so
        a resumed soak never replays a fault that already happened.
        Returns the resume sim time; the service will start its clock
        there.

        The system must have been constructed with the SAME fault
        schedule the envelope records (`load_envelope` +
        `FaultSchedule.from_json` rebuild it); fault ids are schedule-
        order indices, so a different schedule would mis-map them.
        """
        sys_ = self.system
        recorded = envelope.get("schedule")
        if (recorded is not None
                and recorded != sys_.faults.schedule.to_json()):
            raise ValueError(
                "checkpoint schedule does not match the system's fault "
                "schedule; rebuild the system with "
                "FaultSchedule.from_json(envelope['schedule'])")
        checkpoint = Checkpoint.loads(envelope["checkpoint"])
        t = float(envelope.get("sim_t", checkpoint.t))
        sys_.restore(checkpoint, t)
        self._persisted_json = None  # force a fresh persist on first epoch
        if _TEL.enabled:
            _TEL.event("service_restore", t=t,
                       epoch_seq=checkpoint.epoch_seq,
                       version=checkpoint.version)
        self._start_s = t
        return t


__all__ = [
    "ServiceConfig", "ServiceResult", "ServiceError", "XRONService",
    "build_soak_schedule", "health_sample", "ENVELOPE_SCHEMA",
]
