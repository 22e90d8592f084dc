"""Tests for the assembled controller loop."""

import pytest

from repro.controlplane.controller import Controller
from repro.controlplane.model import ControlConfig
from repro.controlplane.nib import LinkReport
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.linkstate import LinkType

CODES = ["A", "B", "C"]


def _push_states(controller, lat_internet=100.0, loss_internet=0.001,
                 lat_premium=80.0, loss_premium=0.00001, t=0.0):
    reports = []
    for a in CODES:
        for b in CODES:
            if a == b:
                continue
            reports.append(LinkReport(a, b, LinkType.INTERNET, lat_internet,
                                      loss_internet, t))
            reports.append(LinkReport(a, b, LinkType.PREMIUM, lat_premium,
                                      loss_premium, t))
    controller.nib.update_many(reports)


def _matrix(demand=50.0):
    return TrafficMatrix(CODES, {(a, b): demand for a in CODES for b in CODES
                                 if a != b})


@pytest.fixture()
def controller():
    ctrl = Controller(CODES, ControlConfig(container_capacity_mbps=100.0))
    _push_states(ctrl)
    return ctrl


def test_run_epoch_produces_all_outputs(controller):
    out = controller.run_epoch(0.0, _matrix(), {c: 4 for c in CODES})
    assert out.path_result.assignments
    assert out.capacity.target
    assert out.reaction_plans
    assert out.predicted_matrix.total() > 0
    assert controller.epochs_run == 1


def test_missing_link_state_treated_as_unusable():
    ctrl = Controller(CODES)
    # No NIB reports at all: links look infinitely bad, so nothing can
    # be assigned, but the epoch still completes.
    out = ctrl.run_epoch(0.0, _matrix(), {c: 4 for c in CODES})
    assert not out.path_result.assignments


def test_internet_only_never_uses_premium():
    ctrl = Controller(CODES, ControlConfig(container_capacity_mbps=100.0),
                      internet_only=True)
    _push_states(ctrl)
    out = ctrl.run_epoch(0.0, _matrix(), {c: 8 for c in CODES})
    assert out.path_result.assignments
    for a in out.path_result.assignments:
        assert all(t is LinkType.INTERNET for __, __, t in a.path.hops)


def test_premium_only_never_uses_internet():
    ctrl = Controller(CODES, ControlConfig(container_capacity_mbps=100.0),
                      premium_only=True)
    _push_states(ctrl)
    out = ctrl.run_epoch(0.0, _matrix(), {c: 8 for c in CODES})
    assert out.path_result.assignments
    for a in out.path_result.assignments:
        assert all(t is LinkType.PREMIUM for __, __, t in a.path.hops)


def test_conflicting_variant_flags_rejected():
    with pytest.raises(ValueError):
        Controller(CODES, premium_only=True, internet_only=True)


def test_symmetric_controller_averages_directions():
    ctrl = Controller(CODES, symmetric_only=True)
    ctrl.nib.update_many([
        LinkReport("A", "B", LinkType.INTERNET, 100.0, 0.0, 0.0),
        LinkReport("B", "A", LinkType.INTERNET, 300.0, 0.1, 0.0)])
    lat, loss = ctrl.link_snapshot().lookup("A", "B", LinkType.INTERNET)
    assert lat == pytest.approx(200.0)
    assert loss == pytest.approx(0.05)


def test_asymmetric_controller_sees_directions(controller):
    controller.nib.update_many([
        LinkReport("A", "B", LinkType.INTERNET, 100.0, 0.0, 1.0),
        LinkReport("B", "A", LinkType.INTERNET, 300.0, 0.0, 1.0)])
    snap = controller.link_snapshot()
    assert snap.lookup("A", "B", LinkType.INTERNET)[0] == 100.0
    assert snap.lookup("B", "A", LinkType.INTERNET)[0] == 300.0


def test_demand_history_feeds_prediction(controller):
    gw = {c: 8 for c in CODES}
    for e in range(6):
        controller.run_epoch(e * 300.0, _matrix(10.0 + e), gw)
    predicted = controller.sib.predicted_matrix()
    # Persistence floor: prediction at least the last observed demand.
    assert predicted.get("A", "B") >= 15.0


def test_capacity_targets_respond_to_demand_growth(controller):
    gw = {c: 1 for c in CODES}
    out_small = controller.run_epoch(0.0, _matrix(10.0), gw)
    out_big = controller.run_epoch(300.0, _matrix(500.0), gw)
    assert (out_big.capacity.total_target()
            > out_small.capacity.total_target())
