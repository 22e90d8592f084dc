"""Tests for the partition/membership fault kinds and injector queries."""

import math

import pytest

from repro.faults import (FaultKind, FaultSchedule, FaultSpec,
                          control_partition, gateway_crash, membership_churn,
                          probe_blackout)
from repro.faults.runtime import FaultCounters, FaultInjector


class TestControlPartitionSpec:
    def test_constructor_sorts_and_freezes_the_region_set(self):
        spec = control_partition(100.0, 60.0, ("SIN", "HGH"))
        assert spec.kind is FaultKind.CONTROL_PARTITION
        assert spec.regions == ("HGH", "SIN")
        assert spec.end_s == 160.0

    def test_partition_needs_a_finite_window(self):
        with pytest.raises(ValueError, match="finite"):
            control_partition(0.0, math.inf, ("HGH",))

    def test_partition_needs_regions(self):
        with pytest.raises(ValueError, match="region"):
            control_partition(0.0, 1.0, ())

    def test_partition_rejects_duplicate_regions(self):
        with pytest.raises(ValueError):
            control_partition(0.0, 1.0, ("HGH", "HGH"))

    def test_regions_are_partition_only(self):
        with pytest.raises(ValueError, match="regions"):
            FaultSpec(FaultKind.PROBE_BLACKOUT, 0.0, 1.0,
                      regions=("HGH",))

    def test_round_trips_through_json(self):
        schedule = FaultSchedule.of(
            control_partition(10.0, 5.0, ("SIN", "HGH")),
            membership_churn(20.0, 5.0, region="FRA", probability=0.5))
        back = FaultSchedule.from_json(schedule.to_json())
        assert back.to_json() == schedule.to_json()
        assert back.specs[0].regions == ("HGH", "SIN")


class TestMembershipChurnSpec:
    def test_constructor(self):
        spec = membership_churn(5.0, 10.0, region="HGH", probability=0.25)
        assert spec.kind is FaultKind.MEMBERSHIP_CHURN
        assert spec.region == "HGH"
        assert spec.probability == 0.25

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
    def test_probability_must_be_in_unit_interval(self, p):
        with pytest.raises(ValueError):
            membership_churn(0.0, 1.0, probability=p)


def _count_draws(monkeypatch):
    """Record every call of the injector's burst kernel."""
    from repro.faults import runtime
    calls = []
    kernel = runtime.burst_draws
    monkeypatch.setattr(runtime, "burst_draws",
                        lambda *args: calls.append(args) or kernel(*args))
    return calls


class TestInjectorQueries:
    def _injector(self, *specs):
        return FaultInjector(FaultSchedule.of(*specs), seed=7)

    def test_active_partitions_in_schedule_order(self):
        a = control_partition(0.0, 100.0, ("HGH",))
        b = control_partition(50.0, 100.0, ("SIN", "FRA"))
        inj = self._injector(a, b)
        assert [s.regions for s in inj.active_partitions(60.0)] == [
            ("HGH",), ("FRA", "SIN")]
        assert inj.active_partitions(120.0) == [b]
        assert inj.active_partitions(200.0) == []

    def test_partition_regions_unions_active_windows(self):
        inj = self._injector(
            control_partition(0.0, 100.0, ("HGH",)),
            control_partition(50.0, 100.0, ("SIN", "FRA")))
        assert inj.partition_regions(60.0) == frozenset(
            {"HGH", "SIN", "FRA"})
        assert inj.partition_regions(500.0) == frozenset()

    def test_membership_churn_certain_probability_draws_no_rng(
            self, monkeypatch):
        inj = self._injector(membership_churn(0.0, 10.0, region="HGH"))
        draws = _count_draws(monkeypatch)
        assert inj.membership_churn("HGH", 5.0) is not None
        assert inj.membership_churn("SIN", 5.0) is None
        assert inj.membership_churn("HGH", 20.0) is None
        assert draws == []

    def test_membership_churn_probabilistic_draws_only_inside_window(
            self, monkeypatch):
        inj = self._injector(
            membership_churn(0.0, 10.0, region="HGH", probability=0.5))
        draws = _count_draws(monkeypatch)
        assert inj.membership_churn("HGH", 50.0) is None  # window closed
        assert draws == []
        instants = [0.05 * k for k in range(200)]
        hits = [inj.membership_churn("HGH", t) is not None for t in instants]
        assert 0 < sum(hits) < 200 and len(draws) == 200
        # A decision is (fault, region, instant) alone: asked again, in
        # another order, after other regions' queries, it is the same.
        assert inj.membership_churn("SIN", 5.0) is None
        assert [inj.membership_churn("HGH", t) is not None
                for t in reversed(instants)] == hits[::-1]

    def test_by_kind_covers_the_whole_taxonomy(self):
        counters = FaultCounters()
        counters.reports_severed = 3
        counters.installs_severed = 2
        counters.refreshes_churned = 7
        counters.gateways_crashed = 4
        counters.gateways_restarted = 1
        by_kind = counters.by_kind()
        assert set(by_kind) == {k.value for k in FaultKind}
        assert by_kind["control_partition"] == 5
        assert by_kind["membership_churn"] == 7
        assert by_kind["gateway_crash"] == 5

    def test_partition_counters_appear_in_as_dict(self):
        counters = FaultCounters()
        assert "reports_severed" in counters.as_dict()
        assert "installs_severed" in counters.as_dict()
        assert "refreshes_churned" in counters.as_dict()

    def test_mixed_schedule_buckets_new_kinds(self):
        inj = self._injector(
            gateway_crash(0.0, 10.0, "HGH", count=1),
            probe_blackout(0.0, 10.0, region="HGH"),
            control_partition(0.0, 10.0, ("HGH", "SIN")),
            membership_churn(0.0, 10.0))
        assert len(inj.active_partitions(5.0)) == 1
        assert inj.membership_churn("FRA", 5.0) is not None
