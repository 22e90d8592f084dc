"""Tests for autoscaling policies and their evaluation."""

import numpy as np
import pytest

from repro.elastic import autoscaler
from repro.elastic.autoscaler import (FixedAllocation, OptimalAllocation,
                                      ProactiveAutoscaler, ReactiveAutoscaler,
                                      evaluate_autoscaler)
from repro.elastic.containers import ContainerPool


@pytest.fixture
def prompt(monkeypatch):
    """Reactive scaling on the demand just measured (no metrics lag)."""
    monkeypatch.setattr(autoscaler, "METRIC_DELAY_SLOTS", 0)


def _events(hub, kind):
    """The trace events of one kind a telemetry hub recorded."""
    return [e for e in hub.tracer.events if e.kind == kind]


#: The decision slot of the demand series, seconds.
SLOT_S = 300.0


def _daily_demand(days=3, slot_s=SLOT_S, peak=5000.0):
    """A smooth synthetic daily pattern with a repeating surge."""
    t = np.arange(0, days * 86400.0, slot_s)
    hours = (t / 3600.0) % 24.0
    base = peak * (0.05 + 0.95 * np.exp(-0.5 * ((hours - 12.0) / 3.0) ** 2))
    surge = np.where((hours >= 9.0) & (hours < 9.5), 2.0, 1.0)
    return base * surge


class TestReactiveAutoscaler:
    def test_scales_up_on_high_utilisation(self, prompt):
        scaler = ReactiveAutoscaler(1000.0)
        assert scaler.decide(0, 900.0) > 1

    def test_holds_in_band(self, prompt):
        scaler = ReactiveAutoscaler(1000.0)
        scaler.decide(0, 700.0)  # util 0.7: in band
        assert scaler.decide(1, 700.0) == 1

    def test_scales_down_on_low_utilisation(self, prompt):
        scaler = ReactiveAutoscaler(1000.0)
        # Grow first.
        for k in range(8):
            scaler.decide(k, 10000.0)
        grown = scaler.decide(8, 10000.0)
        shrunk = scaler.decide(9, 100.0)
        assert shrunk < grown

    def test_never_below_one(self, prompt):
        scaler = ReactiveAutoscaler(1000.0)
        for k in range(20):
            target = scaler.decide(k, 0.0)
        assert target == 1

    def test_metric_delay_defers_reaction(self):
        # The metrics pipeline lags one slot: feed a step change and
        # check the scaler reacts one slot late.
        assert autoscaler.METRIC_DELAY_SLOTS == 1
        p2 = ReactiveAutoscaler(1000.0)
        p2.decide(0, 100.0)
        lagged = p2.decide(1, 9000.0)  # still sees the old 100
        caught_up = p2.decide(2, 9000.0)
        assert caught_up > lagged

    def test_invalid_bounds_rejected(self):
        """The policy's bounds: 0 < low < high <= 1, a step up grows the
        target and a step down shrinks it, and a lag is never negative."""
        assert (0 < autoscaler.LOW_UTILISATION < autoscaler.HIGH_UTILISATION
                <= 1.0)
        assert autoscaler.SCALE_UP_STEP > 1.0 > autoscaler.SCALE_DOWN_STEP
        assert autoscaler.METRIC_DELAY_SLOTS >= 0


class TestProactiveAutoscaler:
    def test_falls_back_to_persistence_before_history(self):
        scaler = ProactiveAutoscaler(1000.0, min_history=10_000)
        target = scaler.decide(0, 2000.0)
        assert target >= 2

    def test_predicts_recurring_pattern(self):
        demand = _daily_demand(days=4)
        scaler = ProactiveAutoscaler(1000.0, min_history=144)
        targets = [scaler.decide(k, float(d)) for k, d in enumerate(demand)]
        # In the last simulated day the policy should anticipate the noon
        # peak: target at 11:30 >= demand at 12:00 / capacity.
        slots_per_day = int(86400 / 300)
        k_1130 = 3 * slots_per_day + int(11.5 * 12)
        noon_demand = demand[3 * slots_per_day + 12 * 12]
        assert targets[k_1130] * 1000.0 >= noon_demand * 0.9


class TestFixedAndOptimal:
    def test_fixed_is_constant(self):
        scaler = FixedAllocation(1000.0, previous_peak_mbps=5000.0)
        assert scaler.decide(0, 1.0) == scaler.decide(99, 9999.0) == 5

    def test_fixed_rejects_negative_peak(self):
        with pytest.raises(ValueError):
            FixedAllocation(1000.0, -1.0)

    def test_optimal_looks_ahead(self, monkeypatch):
        monkeypatch.setattr(autoscaler, "OPTIMAL_HEADROOM", 1.0)
        scaler = OptimalAllocation(1000.0, [100.0, 5000.0, 100.0])
        assert scaler.decide(0, 100.0) == 5  # provisions for slot 1

    def test_optimal_covers_current_slot_when_falling(self, monkeypatch):
        monkeypatch.setattr(autoscaler, "OPTIMAL_HEADROOM", 1.0)
        scaler = OptimalAllocation(1000.0, [100.0, 5000.0, 100.0, 100.0])
        # Deciding at slot 1 must not scale below slot 1's own demand.
        assert scaler.decide(1, 5000.0) == 5


class TestEvaluateAutoscaler:
    def test_fixed_peak_provisioning_never_under_provisions(self, rng,
                                                            monkeypatch):
        monkeypatch.setattr(autoscaler, "FIXED_HEADROOM", 1.1)
        demand = _daily_demand()
        pool = ContainerPool("X", rng, initial=10, max_containers=1000)
        stats = evaluate_autoscaler(
            FixedAllocation(1000.0, float(demand.max())), demand, 1000.0,
            pool, SLOT_S)
        assert stats.under_provisioned_fraction == 0.0

    def test_reactive_under_provisions_on_surges(self, rng):
        demand = _daily_demand(peak=50000.0)
        pool = ContainerPool("X", rng, initial=1, max_containers=10000)
        stats = evaluate_autoscaler(ReactiveAutoscaler(1000.0), demand,
                                    1000.0, pool, SLOT_S)
        assert stats.under_provisioned_fraction > 0.0

    def test_proactive_beats_reactive(self):
        demand = _daily_demand(days=6, peak=50000.0)
        results = {}
        for name, policy in (("reactive", ReactiveAutoscaler(1000.0)),
                             ("proactive",
                              ProactiveAutoscaler(1000.0, min_history=144))):
            pool = ContainerPool("X", np.random.default_rng(1), initial=1,
                                 max_containers=10000)
            results[name] = evaluate_autoscaler(policy, demand, 1000.0, pool,
                                                SLOT_S, warmup_slots=576)
        assert (results["proactive"].mean_error_rate
                <= results["reactive"].mean_error_rate)

    def test_stats_shapes_align(self, rng):
        demand = _daily_demand(days=1)
        pool = ContainerPool("X", rng, initial=1, max_containers=1000)
        stats = evaluate_autoscaler(ReactiveAutoscaler(1000.0), demand,
                                    1000.0, pool, SLOT_S)
        n = len(demand) - 1
        assert stats.error_rates.shape == (n,)
        assert stats.containers.shape == (n,)
        assert stats.demand_mbps.shape == (n,)

    def test_warmup_trims_slots(self, rng):
        demand = _daily_demand(days=1)
        pool = ContainerPool("X", rng, initial=1, max_containers=1000)
        stats = evaluate_autoscaler(ReactiveAutoscaler(1000.0), demand,
                                    1000.0, pool, SLOT_S, warmup_slots=50)
        assert stats.error_rates.shape == (len(demand) - 1 - 50,)

    def test_rejects_short_series(self, rng):
        pool = ContainerPool("X", rng, initial=1, max_containers=10)
        with pytest.raises(ValueError):
            evaluate_autoscaler(ReactiveAutoscaler(1000.0), [1.0], 1000.0,
                                pool, SLOT_S)


class TestDecisionTelemetry:
    """Autoscaler instrumentation: exact counters, flood-limited events."""

    @pytest.fixture(autouse=True)
    def clean_hub(self):
        from repro import obs
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def _flap(self, scaler, n):
        # Alternate demand so the reactive target changes every slot.
        for slot in range(n):
            scaler.decide(slot, 5000.0 if slot % 2 == 0 else 100.0)

    def test_counters_stay_exact_under_flood_limit(self, prompt):
        from repro import obs
        from repro.elastic.autoscaler import (_EVENT_FLOOD_LIMIT,
                                              _EVENT_SAMPLE_EVERY)
        tel = obs.enable()
        scaler = ReactiveAutoscaler(1000.0)
        n = 4000
        self._flap(scaler, n)
        snap = tel.metrics.snapshot()
        changes = snap["autoscale.target_changes"]["value"]
        suppressed = snap["autoscale.events_suppressed"]["value"]
        events = len(_events(tel, "autoscale"))
        assert snap["autoscale.decisions"]["value"] == n
        assert changes > _EVENT_FLOOD_LIMIT  # the gate actually engaged
        assert suppressed > 0
        assert events + suppressed == changes
        assert events <= _EVENT_FLOOD_LIMIT + changes / _EVENT_SAMPLE_EVERY

    def test_no_events_or_counts_while_disabled(self, prompt):
        from repro import obs
        tel = obs.telemetry()
        scaler = ReactiveAutoscaler(1000.0)
        self._flap(scaler, 100)
        assert not tel.tracer.events
        assert "autoscale.decisions" not in tel.metrics.snapshot()
