"""The two-phase install, and the layer's event-engine extension.

`TwoPhaseInstaller` owns the pure (simulator-independent) half of the
safe-update protocol:

* **phase 1 (prepare)** — the update is delivered to every region
  through the engine's delivery hooks and the assembled global state
  is handed to :meth:`TwoPhaseInstaller.validate`, which runs the
  routing invariants while every gateway still holds its last-good
  table;
* **phase 2 (commit)** — an update that validated cleanly is committed
  everywhere with the same monotonically increasing version;
  a rejected update commits *nowhere* and is retried with bounded
  exponential backoff (:meth:`~TwoPhaseInstaller.backoff_delay`),
  superseded silently if a newer epoch's update arrives first
  (:meth:`~TwoPhaseInstaller.is_current`).

`ResilienceExtension` is the half that needs the clock and the
clusters.  Through the hooks of `repro.core.eventsim.HOOKS` it replaces
the engine's built-in install with that protocol (scheduling retries,
pushing to clusters, rebinding sessions on commit); models a controller
outage as a dead process — reports sent meanwhile are lost, and the
first epoch after it restarts the controller, warm from the last
checkpoint or cold without one; takes that checkpoint at the end of
every control epoch and loads one into a freshly built deployment
(`EventDrivenXRON.restore`); and arms degraded-mode forwarding and
failback hold-down on the gateways.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.controlplane.controller import ControlOutput
from repro.obs import telemetry as _telemetry
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.config import ResilienceConfig
from repro.resilience.invariants import (Plans, StreamSpec, Tables,
                                         Violation, validate_install)

_TEL = _telemetry()

#: Retries of a rejected install before it is abandoned; retry n waits
#: ``RETRY_BACKOFF_S * RETRY_BACKOFF_FACTOR ** (n - 1)`` seconds.
MAX_INSTALL_RETRIES = 3
RETRY_BACKOFF_S = 2.0
RETRY_BACKOFF_FACTOR = 2.0
#: Control epochs a gateway's table may age before degraded mode.
STALENESS_EPOCHS = 3


@dataclass
class ResilienceCounters:
    """What the resilience layer actually did during a run."""

    installs_committed: int = 0
    installs_rejected: int = 0
    installs_retried: int = 0
    installs_abandoned: int = 0
    #: Install rounds deferred because a region's push was delayed.
    installs_deferred: int = 0
    violations_found: int = 0
    checkpoints_taken: int = 0
    restores_warm: int = 0
    restores_cold: int = 0
    degraded_demotions: int = 0
    holddown_suppressed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class TwoPhaseInstaller:
    """Version allocation + invariant validation + retry policy."""

    def __init__(self):
        self.counters = ResilienceCounters()
        #: Highest version ever proposed (monotonic, never reused).
        self.proposed_version = 0
        #: Version of the last update that actually committed.
        self.committed_version = 0
        #: Simulated propose time per in-flight version (observability:
        #: commit latency = propose -> commit, through retries/deferrals).
        self._proposed_at: Dict[int, float] = {}
        #: Propose->commit latency of the most recent commit, seconds
        #: (None until a commit with known propose time happens).
        self.last_commit_latency_s: Optional[float] = None

    # ------------------------------------------------------------- versions
    def next_version(self, now: Optional[float] = None) -> int:
        """Allocate the version for a new epoch's update.

        `now` (simulated seconds) stamps the proposal so the eventual
        commit can report its end-to-end install latency."""
        self.proposed_version += 1
        if now is not None:
            self._proposed_at[self.proposed_version] = now
        return self.proposed_version

    def is_current(self, version: int) -> bool:
        """Whether `version` is still the newest proposal (retry guard:
        a pending retry for an older epoch is superseded silently)."""
        return version == self.proposed_version

    def mark_committed(self, version: int,
                       now: Optional[float] = None) -> None:
        proposed_at = self._proposed_at.get(version)
        if now is not None and proposed_at is not None:
            self.last_commit_latency_s = now - proposed_at
        # Superseded (never-committed) proposals can't commit any more:
        # drop every stamp at or below the committed version.
        self._proposed_at = {v: t for v, t in self._proposed_at.items()
                             if v > version}
        self.committed_version = max(self.committed_version, version)
        self.counters.installs_committed += 1

    # ----------------------------------------------------------- validation
    def validate(self, tables: Tables, plans: Plans,
                 cluster_sizes: Dict[str, int],
                 streams: Iterable[StreamSpec]) -> List[Violation]:
        """Phase 1: run the invariants over the delivered update."""
        violations = validate_install(tables, plans, cluster_sizes, streams)
        self.counters.violations_found += len(violations)
        return violations

    # ---------------------------------------------------------------- retry
    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry number `attempt` (1-based), bounded growth."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return RETRY_BACKOFF_S * RETRY_BACKOFF_FACTOR ** (attempt - 1)

    def exhausted(self, attempt: int) -> bool:
        """Whether attempt number `attempt` used up the retry budget."""
        return attempt > MAX_INSTALL_RETRIES


class ResilienceExtension:
    """`config`, armed on `engine` (see the module docstring)."""

    def __init__(self, engine, config: ResilienceConfig):
        self.engine = engine
        self.config = config
        self.installer = TwoPhaseInstaller()
        #: Set while a modeled controller restart is owed after an outage.
        self._restart_owed = False
        stale_after_s = STALENESS_EPOCHS * engine.sim_config.epoch_s
        for cluster in engine.clusters.values():
            cluster.arm_resilience(config, self.installer.counters,
                                   stale_after_s)

    def counters(self) -> Dict[str, Dict[str, int]]:
        return {"resilience_counters": self.installer.counters.as_dict()}

    # -------------------------------------------------- outage and restart
    def reports_lost(self, now: float) -> bool:
        """An outage is a dead process, not a paused one: reports sent
        while it is down are lost, which is what makes the post-outage
        NIB/SIB state an honest recovery problem instead of a free warm
        cache."""
        return self.engine.faults.controller_down(now) is not None

    def epoch_skipped(self, sim, cause, unreachable: frozenset) -> None:
        # The outage killed the process: the first epoch after it ends
        # must restart the controller (cold or warm).
        self._restart_owed = True

    def pre_solve(self, sim) -> None:
        """Model the post-outage controller restart (cold or warm).

        The replacement is constructed exactly like boot, then — when a
        checkpoint exists — warm-loaded from the serialized artifact."""
        if not self._restart_owed:
            return
        self._restart_owed = False
        engine = self.engine
        warm = (self.config.checkpoint_enabled
                and engine.checkpoint_json is not None)
        engine.controller = engine.make_controller()
        engine.fire("controller_restarted")
        if warm:
            self._load(Checkpoint.loads(engine.checkpoint_json))
        else:
            self.installer.counters.restores_cold += 1
        if _TEL.enabled:
            _TEL.counter("resilience.restores").inc()
            _TEL.event("resilience_restore", t=sim.now, warm=warm,
                       epochs_run=engine.controller.epochs_run)

    # ------------------------------------------------------------ checkpoints
    def checkpoint(self, now: float) -> None:
        """Serialize controller state + the last committed install."""
        if not self.config.checkpoint_enabled:
            return
        engine = self.engine
        version = self.installer.committed_version
        checkpoint = Checkpoint.take(
            engine.controller,
            {code: c.current_entries() for code, c in engine.clusters.items()},
            {code: c.current_plans() for code, c in engine.clusters.items()},
            t=now, epoch_seq=engine.epoch_seq, version=version,
            # Absent without a schedule, so fault-free checkpoints keep
            # the pre-fault-state format.
            fault_state=(engine.faults.export_state()
                         if engine.faults.schedule else None))
        engine.checkpoint_json = checkpoint.dumps()
        engine.checkpoint_t = checkpoint.t
        self.installer.counters.checkpoints_taken += 1
        if _TEL.enabled:
            _TEL.counter("resilience.checkpoints").inc()
            _TEL.event("resilience_checkpoint", t=now,
                       epoch_seq=engine.epoch_seq, version=version,
                       bytes=len(engine.checkpoint_json))

    def restore(self, checkpoint: Checkpoint, t: float) -> None:
        """Resume from `checkpoint`: the last committed install is live
        again before the first epoch runs, and new epochs' versions
        supersede it."""
        for code, cluster in self.engine.clusters.items():
            entries = checkpoint.tables.get(code, {})
            plans = checkpoint.plans.get(code, {})
            if entries or plans:
                cluster.install(entries, plans, version=checkpoint.version,
                                now=t)
        self.installer.proposed_version = checkpoint.version
        self.installer.committed_version = checkpoint.version
        self._load(checkpoint)

    def _load(self, checkpoint: Checkpoint) -> None:
        """The one warm-restore routine (post-outage restart, resume)."""
        checkpoint.restore(self.engine.controller)
        self.installer.counters.restores_warm += 1

    # --------------------------------------------------- two-phase installs
    def install(self, sim, output: ControlOutput,
                unreachable: frozenset) -> None:
        """Start the safe-update protocol for one epoch's tables."""
        version = self.installer.next_version(sim.now)
        self._attempt(sim, output, output.stream_specs(), version,
                      attempt=1)

    def _attempt(self, sim, output: ControlOutput,
                 streams: List[StreamSpec], version: int,
                 attempt: int) -> None:
        """One prepare->validate->commit round of the two-phase install."""
        if not self.installer.is_current(version):
            return  # superseded by a newer epoch's update
        engine = self.engine
        now = sim.now
        unreachable = engine.unreachable(now)
        tables = output.path_result.forwarding_tables
        plans_by_region = output.plans_by_region
        delivered_t, delivered_p = {}, {}
        max_delay = 0.0
        for code in engine.clusters:
            entries, plans = tables[code], plans_by_region[code]
            # A severed region's push never crosses the partition edge,
            # so the delivery hooks are moot.  The controller still
            # validates its full proposed update (its *belief* about
            # the topology); only the commit stops at the edge.
            if code not in unreachable:
                entries, plans, delay = engine.deliver(code, entries, plans,
                                                       now)
                max_delay = max(max_delay, delay)
            delivered_t[code], delivered_p[code] = entries, plans
        retry = (sim, output, streams, version, attempt)
        if max_delay > 0.0:
            # The protocol cannot commit until every region acknowledges
            # delivery, so the slowest region paces the whole round.
            self.installer.counters.installs_deferred += 1
            self._retry(*retry, max_delay, reason="deferred")
            return
        violations = self.installer.validate(
            delivered_t, delivered_p,
            {code: c.size for code, c in engine.clusters.items()}, streams)
        if violations:
            self.installer.counters.installs_rejected += 1
            if _TEL.enabled:
                _TEL.counter("resilience.installs_rejected").inc()
                _TEL.event("resilience_install_rejected", t=now,
                           version=version, attempt=attempt,
                           violation_count=len(violations),
                           violations=[str(v) for v in violations[:5]])
            self._retry(*retry, self.installer.backoff_delay(attempt),
                        reason="rejected")
            return
        # Phase 2: commit everywhere with the same version — "everywhere"
        # being every region the controller can actually reach.  A
        # severed region keeps riding its last-installed tables (or its
        # sub-controller's) until heal, when the fenced version of the
        # first post-heal commit supersedes them.
        for code in engine.clusters:
            engine.land(sim, code, delivered_t[code], delivered_p[code],
                        version, unreachable=unreachable)
        self.installer.mark_committed(version, now)
        engine.fire("committed", sim, version)
        if _TEL.enabled:
            _TEL.counter("resilience.installs_committed").inc()
            latency = self.installer.last_commit_latency_s
            _TEL.event("resilience_install_commit", t=now, version=version,
                       attempt=attempt,
                       rows=sum(len(t) for t in delivered_t.values()),
                       latency_s=(round(latency, 6)
                                  if latency is not None else None))
        # Bind-on-commit: tracked sessions only move to the new epoch's
        # stream ids once the tables that know those ids are live.
        engine.rebind_sessions(output, now)

    def _retry(self, sim, output: ControlOutput,
               streams: List[StreamSpec], version: int, attempt: int,
               delay: float, reason: str) -> None:
        """Queue the next attempt, or abandon when the budget is spent.

        An abandoned update commits nowhere: every gateway keeps its
        last-good table until the next control epoch proposes afresh."""
        counters = self.installer.counters
        if self.installer.exhausted(attempt):
            counters.installs_abandoned += 1
            if _TEL.enabled:
                _TEL.counter("resilience.installs_abandoned").inc()
                _TEL.event("resilience_install_abandoned", t=sim.now,
                           version=version, attempt=attempt, reason=reason)
            return
        counters.installs_retried += 1
        if _TEL.enabled:
            _TEL.counter("resilience.installs_retried").inc()
            _TEL.event("resilience_install_retry", t=sim.now, version=version,
                       attempt=attempt, delay_s=delay, reason=reason)
        sim.schedule(
            delay,
            lambda: self._attempt(sim, output, streams, version,
                                  attempt + 1),
            priority=0)


__all__ = ["ResilienceCounters", "ResilienceExtension",
           "TwoPhaseInstaller"]
