"""Edge-case and failure-injection tests across the stack."""

import numpy as np
import pytest

from repro.controlplane import model
from repro.controlplane.controller import Controller
from repro.controlplane.model import ControlConfig
from repro.controlplane.nib import LinkReport
from repro.core.config import SimulationConfig
from repro.core.simulator import EpochSimulator
from repro.core.variants import xron
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.config import UnderlayConfig
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import default_regions
from repro.underlay.topology import build_underlay


@pytest.fixture(scope="module")
def two_regions():
    by_code = {r.code: r for r in default_regions()}
    return [by_code["HGH"], by_code["IAD"]]


class TestTwoRegionDeployment:
    """The minimum topology: no relaying is possible, only tier choice."""

    def test_simulation_runs(self, two_regions):
        u = build_underlay(two_regions, UnderlayConfig(horizon_s=7200.0),
                           seed=3)
        d = DemandModel(two_regions, seed=3)
        sim = EpochSimulator(u, d, xron(),
                             SimulationConfig(epoch_s=600.0,
                                              eval_step_s=60.0, seed=3))
        result = sim.run(0.0, 1800.0)
        assert result.latency_ms.shape[0] == 2
        assert np.all(result.latency_ms > 0)
        # All normal paths are necessarily direct.
        assert all(h == 1 for h, __ in result.normal_hop_samples)


class TestZeroDemand:
    def test_controller_epoch_with_zero_demand(self):
        codes = ["A", "B"]
        ctrl = Controller(codes, ControlConfig())
        for a, b in (("A", "B"), ("B", "A")):
            for lt in LinkType:
                ctrl.nib.update_many([LinkReport(a, b, lt, 100.0, 0.0, 0.0)])
        matrix = TrafficMatrix(codes, {("A", "B"): 0.0, ("B", "A"): 0.0})
        out = ctrl.run_epoch(0.0, matrix, {"A": 2, "B": 2})
        assert out.path_result.assignments == []
        # Idle regions scale down to the floor of one gateway.
        assert out.capacity.target == {"A": 1, "B": 1}

    def test_simulator_with_near_zero_demand(self, two_regions):
        u = build_underlay(two_regions, UnderlayConfig(horizon_s=7200.0),
                           seed=4)
        d = DemandModel(two_regions, seed=4)
        sim = EpochSimulator(
            u, d, xron(),
            SimulationConfig(epoch_s=600.0, eval_step_s=60.0, seed=4,
                             demand_scale=1e-9))
        result = sim.run(0.0, 1200.0)
        # Paths still evaluated (fallback direct) and QoE well defined.
        q = result.qoe_summary()
        assert 0.0 <= q.stall_ratio <= 1.0


class TestExtremeConfigs:
    def test_single_gateway_everywhere(self, two_regions):
        u = build_underlay(two_regions, UnderlayConfig(horizon_s=7200.0),
                           seed=5)
        d = DemandModel(two_regions, seed=5)
        sim = EpochSimulator(
            u, d, xron(),
            SimulationConfig(epoch_s=600.0, eval_step_s=60.0, seed=5,
                             initial_gateways=1))
        result = sim.run(0.0, 1200.0)
        assert np.all(result.containers >= 1)

    def test_eval_step_equal_to_epoch(self, two_regions):
        u = build_underlay(two_regions, UnderlayConfig(horizon_s=7200.0),
                           seed=6)
        d = DemandModel(two_regions, seed=6)
        sim = EpochSimulator(
            u, d, xron(),
            SimulationConfig(epoch_s=300.0, eval_step_s=300.0, seed=6))
        result = sim.run(0.0, 900.0)
        assert result.latency_ms.shape[1] == 3

    def test_eval_step_larger_than_epoch_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(epoch_s=300.0, eval_step_s=301.0)


class TestControllerRobustness:
    def test_partial_nib_still_routes_reachable_pairs(self, monkeypatch):
        """Reports for only one direction: that direction still routes."""
        monkeypatch.setattr(model, "CONTAINER_CAPACITY_MBPS", 100.0)
        codes = ["A", "B", "C"]
        ctrl = Controller(codes, ControlConfig())
        for lt in LinkType:
            ctrl.nib.update_many([LinkReport("A", "B", lt, 100.0, 0.0, 0.0)])
        matrix = TrafficMatrix(codes, {("A", "B"): 10.0, ("B", "A"): 10.0})
        out = ctrl.run_epoch(0.0, matrix, {c: 4 for c in codes})
        routed = {(a.stream.src, a.stream.dst)
                  for a in out.path_result.assignments}
        assert ("A", "B") in routed
        assert ("B", "A") not in routed

    def test_all_links_reported_dead(self):
        codes = ["A", "B"]
        ctrl = Controller(codes, ControlConfig())
        for a, b in (("A", "B"), ("B", "A")):
            for lt in LinkType:
                ctrl.nib.update_many([LinkReport(a, b, lt, 50_000.0, 1.0, 0.0)])
        matrix = TrafficMatrix(codes, {("A", "B"): 10.0})
        out = ctrl.run_epoch(0.0, matrix, {"A": 2, "B": 2})
        # Best-effort fallback still carries the stream, flagged.
        assert out.path_result.assignments
        assert not out.path_result.assignments[0].meets_constraints


class TestWeekendTraffic:
    def test_weekend_day_simulates(self, two_regions):
        """Day 5 of the week (weekend factor) must not break anything."""
        u = build_underlay(two_regions,
                           UnderlayConfig(horizon_s=6 * 86400.0), seed=7)
        d = DemandModel(two_regions, seed=7)
        sim = EpochSimulator(
            u, d, xron(),
            SimulationConfig(epoch_s=900.0, eval_step_s=300.0, seed=7))
        result = sim.run(5 * 86400.0, 3600.0)
        assert np.all(result.demand_mbps > 0)
