"""Autoscaling policies and their evaluation (Fig. 17c, Fig. 20).

Four policies over a per-region demand series:

* `ReactiveAutoscaler` — the cloud-native baseline: targets track the
  *last measured* demand, so capacity lags demand by (decision interval +
  container provisioning time) and spikes under-provision.
* `ProactiveAutoscaler` — XRON: targets come from the DTFT predictor's
  five-minutes-ahead forecast (with the >= last-actual rule).
* `FixedAllocation` — provision for the previous week's peak, statically.
* `OptimalAllocation` — an oracle that knows the future demand exactly
  and pre-provisions just in time.

`evaluate_autoscaler` replays a demand series against a `ContainerPool`
and reports the paper's metrics: the capacity under-provisioning error
rate per slot and the fraction of time under-provisioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Protocol, Sequence

import numpy as np

from repro.controlplane.prediction import RollingPredictor
from repro.elastic.containers import ContainerPool
from repro.obs import telemetry as _telemetry
from repro.obs.metrics import HotCounters

_TEL = _telemetry()


class Autoscaler(Protocol):
    """Decides a target container count each slot."""

    def decide(self, slot: int, observed_demand_mbps: float) -> int:
        """Target containers, given the demand measured in the last slot."""
        ...


def _containers_for(demand_mbps: float, container_capacity_mbps: float,
                    headroom: float) -> int:
    return max(1, math.ceil(demand_mbps * headroom / container_capacity_mbps))


#: After this many traced target changes from one autoscaler instance,
#: only every `_EVENT_SAMPLE_EVERY`-th further change is recorded as an
#: event (`autoscale.events_suppressed` counts the rest; the
#: decision/change counters stay exact).  Long policy sweeps (fig20
#: evaluates ~90k decisions) otherwise flood the trace with flapping
#: targets, and the event volume — not the guards — is what dominates
#: telemetry overhead.
_EVENT_FLOOD_LIMIT = 256
_EVENT_SAMPLE_EVERY = 32


#: decide() runs tens of thousands of times per experiment: the
#: counters' handles are cached, not re-resolved by name each call.
_DECISION_COUNTERS = HotCounters("autoscale.decisions",
                                 "autoscale.target_changes",
                                 "autoscale.events_suppressed")


class _FloodGate:
    """One autoscaler's decision counting and its event flood gate."""

    __slots__ = ("_changes_seen",)

    def __init__(self):
        self._changes_seen = 0

    def count(self, changed: bool) -> bool:
        """Count one decision, and a target change if `changed`; True if
        that change's event should be traced."""
        decisions, changes, suppressed = _DECISION_COUNTERS.fetch(
            _TEL.metrics)
        decisions.inc()
        if not changed:
            return False
        changes.inc()
        self._changes_seen += 1
        if (self._changes_seen <= _EVENT_FLOOD_LIMIT
                or self._changes_seen % _EVENT_SAMPLE_EVERY == 0):
            return True
        suppressed.inc()
        return False


class ReactiveAutoscaler:
    """The cloud-native utilisation-triggered policy (§2.3's baseline).

    Mirrors how container platforms auto-scale: watch utilisation of the
    *current* fleet and step the target multiplicatively when thresholds
    trip.  During a fast ramp the target chases demand one step per
    decision interval and each step also pays the provisioning delay, so
    spikes under-provision — exactly the behaviour the paper's Fig. 20
    contrasts with proactive scaling.
    """

    def __init__(self, container_capacity_mbps: float,
                 high_utilisation: float = 0.8,
                 low_utilisation: float = 0.45,
                 scale_up_step: float = 1.3,
                 scale_down_step: float = 0.75,
                 metric_delay_slots: int = 1):
        if not 0 < low_utilisation < high_utilisation <= 1.0:
            raise ValueError("need 0 < low < high <= 1 utilisation bounds")
        if metric_delay_slots < 0:
            raise ValueError("metric delay cannot be negative")
        self.container_capacity_mbps = container_capacity_mbps
        self.high = high_utilisation
        self.low = low_utilisation
        self.up = scale_up_step
        self.down = scale_down_step
        #: The platform's metrics pipeline (scrape, aggregate, stabilise)
        #: adds minutes before a utilisation change is acted on.
        self.metric_delay_slots = metric_delay_slots
        self._history: List[float] = []
        self._target = 1
        self._gate = _FloodGate()

    def decide(self, slot: int, observed_demand_mbps: float) -> int:
        self._history.append(observed_demand_mbps)
        idx = max(0, len(self._history) - 1 - self.metric_delay_slots)
        seen = self._history[idx]
        del self._history[:idx]
        capacity = self._target * self.container_capacity_mbps
        utilisation = seen / capacity if capacity > 0 else 1.0
        previous = self._target
        if utilisation > self.high:
            self._target = max(self._target + 1,
                               math.ceil(self._target * self.up))
        elif utilisation < self.low:
            self._target = max(1, math.floor(self._target * self.down))
        if _TEL.enabled and self._gate.count(self._target != previous):
            _TEL.event("autoscale", policy="reactive", slot=slot,
                       observed_mbps=round(observed_demand_mbps, 3),
                       utilisation=round(utilisation, 4),
                       previous_target=previous, target=self._target)
        return self._target


class ProactiveAutoscaler:
    """XRON's policy: scale to the DTFT prediction of the coming window.

    The prediction horizon covers the provisioning window (the paper
    reserves five minutes — two decision slots: the slot being decided
    plus the one in which freshly-started containers become ready).
    """

    def __init__(self, container_capacity_mbps: float, headroom: float = 1.25,
                 n_harmonics: int = 100, history_slots: int = 576,
                 refit_every: int = 12, min_history: int = 288,
                 horizon_slots: int = 2):
        self.container_capacity_mbps = container_capacity_mbps
        self.headroom = headroom
        self.horizon_slots = horizon_slots
        self.predictor = RollingPredictor(n_harmonics, history_slots,
                                          refit_every, min_history)
        self._last_target = 0
        self._gate = _FloodGate()

    def decide(self, slot: int, observed_demand_mbps: float) -> int:
        self.predictor.observe(observed_demand_mbps)
        predicted = self.predictor.predict_next(self.horizon_slots)
        target = _containers_for(predicted, self.container_capacity_mbps,
                                 self.headroom)
        if _TEL.enabled and self._gate.count(target != self._last_target):
            _TEL.event("autoscale", policy="proactive", slot=slot,
                       observed_mbps=round(observed_demand_mbps, 3),
                       predicted_mbps=round(predicted, 3),
                       previous_target=self._last_target, target=target)
        self._last_target = target
        return target


class FixedAllocation:
    """Provision statically for the previous week's peak demand."""

    def __init__(self, container_capacity_mbps: float,
                 previous_peak_mbps: float, headroom: float = 1.0):
        if previous_peak_mbps < 0:
            raise ValueError("peak demand must be non-negative")
        self._target = _containers_for(previous_peak_mbps,
                                       container_capacity_mbps, headroom)

    def decide(self, slot: int, observed_demand_mbps: float) -> int:
        return self._target


class OptimalAllocation:
    """Oracle: sees the true future demand, provisions just in time.

    Looks across the provisioning window (two slots) so in-flight starts
    are always ready when the demand arrives; a small headroom absorbs
    the capacity quantisation at container boundaries.
    """

    def __init__(self, container_capacity_mbps: float,
                 future_demand_mbps: Sequence[float], headroom: float = 1.05,
                 window_slots: int = 2):
        self.container_capacity_mbps = container_capacity_mbps
        self.future = np.asarray(future_demand_mbps, dtype=float)
        self.headroom = headroom
        self.window_slots = window_slots

    def decide(self, slot: int, observed_demand_mbps: float) -> int:
        # Cover the slot being decided AND the provisioning window after
        # it; scaling down at a slot's start must not strand the slot's
        # own demand (removals are immediate).
        lo = min(slot, len(self.future) - 1)
        hi = min(slot + 1 + self.window_slots, len(self.future))
        peak = float(np.max(self.future[lo:hi])) if hi > lo else 0.0
        return _containers_for(peak, self.container_capacity_mbps,
                               self.headroom)


@dataclass
class UnderProvisioningStats:
    """Fig. 20's metrics over one evaluation run."""

    #: Per-slot error = max(0, demand - capacity) / demand.
    error_rates: np.ndarray
    #: Capacity (Mbps) and container counts per slot, for Fig. 17c CDFs.
    capacity_mbps: np.ndarray
    containers: np.ndarray
    demand_mbps: np.ndarray

    @property
    def under_provisioned_fraction(self) -> float:
        """Fraction of slots with any shortfall."""
        return float(np.mean(self.error_rates > 0))

    @property
    def mean_error_rate(self) -> float:
        return float(np.mean(self.error_rates))

    @property
    def mean_containers(self) -> float:
        return float(np.mean(self.containers))


def evaluate_autoscaler(autoscaler: Autoscaler,
                        demand_mbps: Sequence[float],
                        container_capacity_mbps: float,
                        pool: ContainerPool,
                        slot_s: float = 300.0,
                        warmup_slots: int = 0) -> UnderProvisioningStats:
    """Replay a demand series against a policy and a container pool.

    At the start of slot k the policy sees the demand of slot k-1 and sets
    a target; additions become ready after the provisioning delay.  The
    slot's shortfall compares the slot's true demand with the capacity
    that is actually ready *mid-slot*.
    """
    demand = np.asarray(demand_mbps, dtype=float)
    if demand.ndim != 1 or demand.size < 2:
        raise ValueError("demand series must be 1-D with >= 2 slots")
    errors, caps, counts = [], [], []
    for k in range(1, len(demand)):
        now = k * slot_s
        target = autoscaler.decide(k, float(demand[k - 1]))
        pool.scale_to(target, now)
        ready = pool.ready_count(now + slot_s / 2.0)
        capacity = ready * container_capacity_mbps
        d = float(demand[k])
        shortfall = max(0.0, d - capacity)
        errors.append(shortfall / d if d > 0 else 0.0)
        caps.append(capacity)
        counts.append(ready)
    errors = np.array(errors[warmup_slots:])
    caps = np.array(caps[warmup_slots:])
    counts = np.array(counts[warmup_slots:])
    return UnderProvisioningStats(errors, caps, counts,
                                  demand[1:][warmup_slots:])
