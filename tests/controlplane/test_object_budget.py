"""A machine-independent guard on the control solve's allocation model:
the solver works on indices and rows, and objects are built once, at
the boundary.

One `Controller.run_epoch` on the 20-region planet with two gateways
per region (so graph rebuilds and the best-effort pass both run) may
construct an `Assignment` per assignment of the *capacitated* result and
an `OverlayPath` per distinct placed route — nothing per visit, nothing
per reaction-plan candidate, and nothing at all for capacity control's
uncapacitated run, which sizes the fleet straight off its placement.
Counting constructions (not seconds) makes the guard exact and portable.
"""

import pytest

from repro.controlplane.controller import Controller
from repro.controlplane.model import ControlConfig, OverlayPath
from repro.controlplane.nib import LinkReport
from repro.controlplane.pathcontrol import Assignment, path_control
from repro.controlplane.reactionplan import generate_reaction_plans
from repro.experiments.base import planet_underlay
from repro.traffic.cohorts import CohortWorkload
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.snapshot import TYPE_ORDER


@pytest.fixture()
def built(monkeypatch):
    """Construction counts of `Assignment` and `OverlayPath`, by class
    name, through every door (`__init__`, `unchecked` and so `via` /
    `direct`)."""
    counts = {"Assignment": 0, "OverlayPath": 0}
    assignment_init = Assignment.__init__
    path_init, path_unchecked = OverlayPath.__init__, OverlayPath.unchecked

    def counted(name, make):
        def counting(*args, **kwargs):
            counts[name] += 1
            return make(*args, **kwargs)
        return counting

    monkeypatch.setattr(Assignment, "__init__",
                        counted("Assignment", assignment_init))
    monkeypatch.setattr(OverlayPath, "__init__",
                        counted("OverlayPath", path_init))
    monkeypatch.setattr(OverlayPath, "unchecked",
                        staticmethod(counted("OverlayPath", path_unchecked)))
    return counts


def test_an_epoch_builds_objects_once_at_the_boundary(built):
    underlay = planet_underlay(20, seed=7, horizon_s=900.0)
    codes, now = underlay.codes, 450.0
    controller = Controller(
        codes, ControlConfig(), pricing=underlay.pricing,
        workload=CohortWorkload(seed=7, cohorts_per_pair=2), seed=7)
    truth = underlay.snapshot(now)
    controller.nib.update_many([
        LinkReport(a, b, t, float(truth.lat[ti, i, j]),
                   float(truth.loss[ti, i, j]), now)
        for ti, t in enumerate(TYPE_ORDER)
        for i, a in enumerate(codes) for j, b in enumerate(codes) if i != j])
    matrix = TrafficMatrix.from_model(DemandModel(underlay.regions, seed=7),
                                      8 * 3600.0)

    output = controller.run_epoch(now, matrix, {c: 2 for c in codes})

    r_cur, decision = output.path_result, output.capacity
    assert r_cur.graph_rebuilds > 0
    assert not all(a.meets_constraints for a in r_cur.assignments)
    assert built["Assignment"] == len(r_cur.assignments)
    placed_routes = {a.path.hops for a in r_cur.assignments}
    assert built["OverlayPath"] == len(placed_routes)
    # One object per distinct route, shared by its assignments.
    assert len({id(a.path) for a in r_cur.assignments}) == len(placed_routes)

    # Plan scoring builds no path per candidate.
    snap = controller.link_snapshot()
    before = dict(built)
    plans = generate_reaction_plans(r_cur, snap,
                                    controller.config.loss_ms_penalty)
    assert plans == output.reaction_plans
    assert any(len(plan.relay_regions) > 1 for plan in plans.values())
    assert built == before

    # Capacity control sized the fleet from the uncapacitated run's
    # placement without building its objects; built, they are one
    # assignment each, and every region it overflows scales up to it.
    r_next = path_control(output.streams, codes, snap, controller.config,
                          gateways=None, fees=underlay.pricing)
    assert built["Assignment"] == before["Assignment"] + len(
        r_next.assignments)
    grown = [c for c in codes if r_next.used_gateways[c] > 2]
    assert grown
    for c in grown:
        assert decision.target[c] == min(r_next.used_gateways[c],
                                         controller.config.max_containers)
