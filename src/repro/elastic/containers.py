"""Container lifecycle: provisioning delays and per-region pools.

The paper (§2.3) lists four overheads that stretch container startup from
seconds to minutes: (1) instance preparation through the orchestration
stack, (2) image pulls on cache miss, (3) platform-shared procedures such
as IP allocation that slow down under load, and (4) software/hardware
readiness checks.  `ProvisioningDelayModel` samples each component
explicitly; `ContainerPool` tracks ready and in-flight containers against
explicit timestamps (so it works in both epoch-mode and event-mode
simulations) and accounts container-hours for billing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.obs import telemetry as _telemetry

_TEL = _telemetry()


@dataclass
class ProvisioningDelayModel:
    """Samples container startup delays, component by component."""

    #: Orchestration-stack instance preparation, uniform range (s).
    orchestration_min_s: float = 15.0
    orchestration_max_s: float = 45.0
    #: Probability the image is already cached on the chosen host.
    image_cache_hit_rate: float = 0.6
    #: Image pull time on cache miss, uniform range (s).
    image_pull_min_s: float = 45.0
    image_pull_max_s: float = 150.0
    #: Base IP-allocation time (s); multiplied by the platform-load factor.
    ip_allocation_mean_s: float = 5.0
    #: Readiness checks, uniform range (s).
    checks_min_s: float = 10.0
    checks_max_s: float = 30.0

    def sample(self, rng: np.random.Generator,
               platform_load: float = 1.0) -> float:
        """One startup delay in seconds.

        `platform_load` >= 1 inflates the shared-procedure component
        (IP allocation etc.), modelling a busy cloud.
        """
        if platform_load < 1.0:
            raise ValueError(f"platform_load must be >= 1, got {platform_load}")
        delay = rng.uniform(self.orchestration_min_s, self.orchestration_max_s)
        if rng.random() >= self.image_cache_hit_rate:
            delay += rng.uniform(self.image_pull_min_s, self.image_pull_max_s)
        delay += rng.exponential(self.ip_allocation_mean_s * platform_load)
        delay += rng.uniform(self.checks_min_s, self.checks_max_s)
        return float(delay)


@dataclass(frozen=True)
class ScalingAction:
    """Record of one scale decision applied to a pool."""

    time: float
    region: str
    added: int
    removed: int


class ContainerPool:
    """Gateways (containers) of one region: ready set + in-flight starts."""

    def __init__(self, region: str, rng: np.random.Generator, *,
                 initial: int = 1, max_containers: int = 64,
                 delay_model: Optional[ProvisioningDelayModel] = None):
        if initial < 0 or initial > max_containers:
            raise ValueError(
                f"initial={initial} outside [0, {max_containers}]")
        self.region = region
        self.max_containers = int(max_containers)
        self._rng = rng
        self._delay_model = (delay_model if delay_model is not None
                             else ProvisioningDelayModel())
        self._ready = int(initial)
        #: Start completion times of in-flight containers, unsorted.
        self._inflight: List[float] = []
        self._container_seconds = 0.0
        self._last_accounted = 0.0
        self.actions: List[ScalingAction] = []
        #: Fault-injection seam: ``now -> load factor`` (a provisioning
        #: storm, §2.3).  The effective load of a scale-up is the max of
        #: the caller's `platform_load` and this.  None = no faults.
        self.platform_load_fn = None

    # ------------------------------------------------------------------ api
    def ready_count(self, now: float) -> int:
        """Containers serving traffic at `now` (promotes finished starts)."""
        self._promote(now)
        return self._ready

    def scale_to(self, target: int, now: float,
                 platform_load: float = 1.0) -> ScalingAction:
        """Move toward `target` containers.

        Additions enter the provisioning pipeline (ready minutes later);
        removals take effect immediately — tearing a container down is
        fast.  Removals first cancel in-flight starts, newest first.
        """
        if target < 0:
            raise ValueError(f"negative target {target}")
        target = min(target, self.max_containers)
        self._account(now)
        self._promote(now)
        current = self._ready + len(self._inflight)
        added = removed = 0
        if target > current:
            added = target - current
            if self.platform_load_fn is not None:
                fault_load = float(self.platform_load_fn(now))
                if fault_load > platform_load:
                    platform_load = fault_load
                    if _TEL.enabled:
                        _TEL.counter("fault.load_spikes").inc()
                        _TEL.event("fault_platform_load", t=now,
                                   region=self.region, load=platform_load,
                                   starts=added)
            for __ in range(added):
                delay = self._delay_model.sample(self._rng, platform_load)
                self._inflight.append(now + delay)
        elif target < current:
            removed = current - target
            cancel = min(removed, len(self._inflight))
            if cancel:
                self._inflight.sort()
                del self._inflight[-cancel:]
            self._ready -= (removed - cancel)
        action = ScalingAction(now, self.region, added, removed)
        self.actions.append(action)
        return action

    def container_hours(self, now: float) -> float:
        """Cumulative ready-container hours up to `now` (for billing)."""
        self._account(now)
        return self._container_seconds / 3600.0

    # -------------------------------------------------------------- internal
    def _promote(self, now: float) -> None:
        self._account(now)
        still = [t for t in self._inflight if t > now]
        self._ready += len(self._inflight) - len(still)
        self._inflight = still

    def _account(self, now: float) -> None:
        if now < self._last_accounted:
            raise ValueError(
                f"time went backwards: {now} < {self._last_accounted}")
        # Bill ready containers for the elapsed span; containers that
        # became ready during the span are billed from their ready time
        # (but never before the last accounting point, to avoid double
        # billing when accounting runs twice before promotion).
        span = now - self._last_accounted
        self._container_seconds += self._ready * span
        for t in self._inflight:
            if t <= now:
                self._container_seconds += now - max(t, self._last_accounted)
        self._last_accounted = now
