"""A machine-independent guard on the control epoch's allocation model:
the epoch works on columns and rows, and objects are built once, at
the boundary.

One `Controller.run_epoch` on the 20-region planet over cohorts, with
two gateways per region (so graph rebuilds and the best-effort pass
both run), constructs no `Stream`, `ReactionPlan`, `Assignment` or
`OverlayPath` at all.  Reading the output's object forms builds them
once: a `Stream` per row, an `Assignment` per assignment of the
*capacitated* result, an `OverlayPath` per distinct placed route and a
`ReactionPlan` per (stream, region) plan — nothing per visit, nothing
per plan candidate, and nothing for capacity control's uncapacitated
run, which sizes the fleet straight off its columns.  Counting
constructions and surviving containers (not seconds) makes the guard
exact and portable.
"""

import gc

import pytest

from repro.controlplane.controller import Controller
from repro.controlplane.model import ControlConfig, OverlayPath
from repro.controlplane.nib import LinkReport
from repro.controlplane.pathcontrol import Assignment, path_control
from repro.controlplane.reactionplan import (ReactionPlan,
                                             generate_reaction_plans)
from repro.experiments.base import planet_underlay
from repro.traffic.cohorts import CohortWorkload
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import Stream
from repro.underlay.snapshot import TYPE_ORDER

#: Tracked containers one such epoch may leave behind (`gc.get_objects`
#: with the collector paused).  It leaves ~460: the route rows, plan and
#: table dicts; before the columnar epoch it left ~7 000, most of them
#: the decomposition's cohort objects and their profile breakdowns.
EPOCH_CONTAINERS = 1000


@pytest.fixture()
def built(monkeypatch):
    """Construction counts of the boundary classes, by class name,
    through every door (`__init__`, and `unchecked` — so `via` /
    `direct` — for paths)."""
    counts = {"Stream": 0, "ReactionPlan": 0, "Assignment": 0,
              "OverlayPath": 0}

    def counted(name, make):
        def counting(*args, **kwargs):
            counts[name] += 1
            return make(*args, **kwargs)
        return counting

    for cls in (Stream, ReactionPlan, Assignment, OverlayPath):
        monkeypatch.setattr(cls, "__init__",
                            counted(cls.__name__, cls.__init__))
    monkeypatch.setattr(OverlayPath, "unchecked", staticmethod(
        counted("OverlayPath", OverlayPath.unchecked)))
    return counts


@pytest.fixture()
def planet():
    """A controller on the 20-region planet whose NIB holds the truth,
    and the peak-hour demand."""
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
    return controller, underlay, matrix, now


def test_an_epoch_builds_objects_once_at_the_boundary(built, planet):
    controller, underlay, matrix, now = planet
    codes = underlay.codes

    output = controller.run_epoch(now, matrix, {c: 2 for c in codes})

    assert built == {"Stream": 0, "ReactionPlan": 0, "Assignment": 0,
                     "OverlayPath": 0}
    r_cur, decision = output.path_result, output.capacity
    assert r_cur.graph_rebuilds > 0
    assert r_cur.unassigned_at

    # The boundary: each object form once, on first read.
    assert not all(a.meets_constraints for a in r_cur.assignments)
    assert built["Stream"] == len(output.table)
    assert built["Assignment"] == len(r_cur.route)
    placed_routes = {a.path.hops for a in r_cur.assignments}
    assert built["OverlayPath"] == len(placed_routes)
    # One object per distinct route, shared by its assignments, and
    # one per stream, shared by its assignments and `streams`.
    assert len({id(a.path) for a in r_cur.assignments}) == len(placed_routes)
    streams = output.streams
    assert all(a.stream is streams[p]
               for a, p in zip(r_cur.assignments, r_cur.position))
    assert r_cur.unassigned[0][0] is streams[r_cur.unassigned_at[0]]
    assert built["Stream"] == len(output.table)
    plans = output.reaction_plans
    assert built["ReactionPlan"] == len(plans) == sum(
        len(by_stream) for by_stream in output.plans_by_region.values())
    assert any(len(plan.relay_regions) > 1 for plan in plans.values())
    # A second read builds nothing.
    before = dict(built)
    assert output.streams is streams and output.reaction_plans is plans
    assert r_cur.assignments is r_cur.assignments
    assert built == before

    # Plan scoring builds no path and no plan object.
    snap = controller.link_snapshot()
    assert generate_reaction_plans(
        r_cur, snap, controller.config.loss_ms_penalty) \
        == output.plans_by_region
    assert built == before

    # Capacity control sized the fleet from the uncapacitated run's
    # columns without building its objects; built, they are one
    # assignment each, and every region it overflows scales up to it.
    r_next = path_control(output.table, codes, snap, controller.config,
                          gateways=None, fees=underlay.pricing)
    assert built == before
    assert len(r_next.assignments) == len(r_next.route)
    assert built["Assignment"] == before["Assignment"] + len(r_next.route)
    grown = [c for c in codes if r_next.used_gateways[c] > 2]
    assert grown
    for c in grown:
        assert decision.target[c] == min(r_next.used_gateways[c],
                                         controller.config.max_containers)


def test_a_traced_epoch_builds_no_objects(built, planet):
    """The telemetry branch (`control_epoch`'s pair attribution and
    counts) reads the columns too."""
    from repro import obs

    controller, underlay, matrix, now = planet
    with obs.capture() as hub:
        controller.run_epoch(now, matrix, {c: 2 for c in underlay.codes})
    [event] = [e for e in hub.events_json() if e["kind"] == "control_epoch"]
    assert event["top_pairs"] and event["reaction_plans"] > 0
    assert built == {"Stream": 0, "ReactionPlan": 0, "Assignment": 0,
                     "OverlayPath": 0}


def test_an_epoch_leaves_few_containers_behind(planet):
    """What one epoch leaves for the collector to trace stays bounded."""
    controller, underlay, matrix, now = planet
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        output = controller.run_epoch(now, matrix,
                                      {c: 2 for c in underlay.codes})
        left = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert output.path_result.route.size
    assert left < EPOCH_CONTAINERS
