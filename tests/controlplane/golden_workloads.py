"""Deterministic workloads + digests for the golden-equivalence tests.

The module builds two seeded control workloads — the paper's 11-region
deployment scale and the 22-region what-if from ``bench_scalability`` —
and distils full control outputs (path control, capacity control,
reaction plans) into JSON-stable digests.  Floats are stored as
``float.hex()`` strings so equality is bit-exact, not approximate.
A third fixture, ``cohort_n20``, pins the path planet-scale runs take:
three `Controller.run_epoch`s over a `CohortWorkload` on the 20-region
planet, digested through the attributes an experiment reads
(`ControlOutput.streams`, ``.path_result``, ``.reaction_plans``), with
stream ids, forwarding tables and plans in insertion order.

Run ``PYTHONPATH=src python -m tests.controlplane.golden_workloads`` to
(re)generate the frozen reference fixtures under
``tests/controlplane/golden/``.
Regenerate ONLY when a deliberate behaviour change is made; the whole
point of the fixtures is to prove refactors do not move a single bit.
"""

from __future__ import annotations

import json
import pathlib
from typing import Callable, Dict

import numpy as np

from repro.controlplane.capacity import capacity_control
from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import PathControlResult, path_control
from repro.controlplane.reactionplan import generate_reaction_plans
from repro.experiments.base import standard_demand, standard_underlay
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import StreamWorkload
from repro.underlay.regions import Region, default_regions
from tests.snapshots import link_model_snapshot
from tests.tables import region_traffic

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: The two frozen workloads: name -> builder.
WORKLOADS: Dict[str, Callable] = {}


def _workload(fn):
    WORKLOADS[fn.__name__] = fn
    return fn


class Workload:
    """Everything one golden scenario needs to run the control stack."""

    def __init__(self, underlay, streams, now: float):
        self.underlay = underlay
        self.streams = streams
        self.now = now
        self.codes = underlay.codes
        self.config = ControlConfig()
        self.gateways = {c: 8 for c in underlay.codes}
        self.fees = underlay.pricing


@_workload
def paper_scale() -> Workload:
    """Eleven regions, peak-hour demand, 8 stream chunks per pair."""
    u = standard_underlay()
    demand = standard_demand()
    workload = StreamWorkload(np.random.default_rng(0),
                              max_streams_per_pair=8)
    now = 8 * 3600.0
    matrix = TrafficMatrix.from_model(demand, now)
    return Workload(u, workload.decompose(matrix), now)


@_workload
def double_scale() -> Workload:
    """The 22-region what-if from ``bench_scalability``."""
    from repro.traffic.demand import DemandModel
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.topology import build_underlay

    base = default_regions()
    extra = [Region(r.name + " 2", r.code[:2] + "2", r.latitude + 3.0,
                    r.longitude - 5.0, r.utc_offset, r.continent)
             for r in base]
    u = build_underlay(base + extra, UnderlayConfig(horizon_s=7200.0), seed=2)
    demand = DemandModel(base + extra, seed=2)
    workload = StreamWorkload(np.random.default_rng(0),
                              max_streams_per_pair=2)
    now = 3600.0
    matrix = TrafficMatrix.from_model(demand, now)
    return Workload(u, workload.decompose(matrix), now)


# --------------------------------------------------------------------- digest
def _hex(x: float) -> str:
    return float(x).hex()


def path_result_digest(result: PathControlResult) -> Dict:
    """A JSON-stable, bit-exact digest of one path-control output."""
    return {
        "assignments": [
            [a.stream.stream_id, a.stream.src, a.stream.dst,
             [[h[0], h[1], h[2].value] for h in a.path.hops],
             _hex(a.mbps), _hex(a.latency_ms), _hex(a.loss_rate),
             bool(a.meets_constraints)]
            for a in result.assignments],
        "unassigned": sorted(
            [s.stream_id, _hex(residual)]
            for s, residual in result.unassigned),
        "region_traffic": {c: _hex(v) for c, v in
                           sorted(region_traffic(result).items())},
        "internet_egress": {c: _hex(v)
                            for c, v in sorted(result.internet_egress.items())},
        "premium_usage": {f"{i}->{j}": _hex(v)
                          for (i, j), v in sorted(result.premium_usage.items())},
        "used_gateways": dict(sorted(result.used_gateways.items())),
        "forwarding_tables": {
            region: {str(sid): [nxt, t.value]
                     for sid, (nxt, t) in sorted(table.items())}
            for region, table in sorted(result.forwarding_tables.items())},
        "graph_rebuilds": result.graph_rebuilds,
    }


def control_digest(wl: Workload, snap) -> Dict:
    """Run the full two-step control + reaction plans on the link state
    `snap`; digest everything."""
    r_cur = path_control(wl.streams, wl.codes, snap, wl.config,
                         gateways=wl.gateways, fees=wl.fees)
    decision = capacity_control(wl.streams, wl.codes, snap, wl.config,
                                wl.gateways, r_cur, fees=wl.fees)
    # R_next, the uncapacitated run step 2 sizes the fleet from.
    r_next = path_control(wl.streams, wl.codes, snap, wl.config,
                          gateways=None, fees=wl.fees)
    plans = generate_reaction_plans(r_cur, snap)
    return {
        "path_control": path_result_digest(r_cur),
        "capacity": {
            "add": dict(sorted(decision.add.items())),
            "remove": dict(sorted(decision.remove.items())),
            "target": dict(sorted(decision.target.items())),
            "uncapacitated": path_result_digest(r_next),
        },
        "reaction_plans": {
            f"{sid}:{region}": list(plans[region][sid])
            for sid, region in sorted((sid, region)
                                      for region, by_stream in plans.items()
                                      for sid in by_stream)},
    }


def output_digest(output) -> Dict:
    """One `ControlOutput` as an experiment reads it: the streams, the
    capacitated result, the capacity decision and the plans — the
    streams, tables and plans in insertion order."""
    return {
        "streams": [[s.stream_id, s.src, s.dst, _hex(s.demand_mbps),
                     s.profile.name, s.session_count]
                    for s in output.streams],
        "path_control": path_result_digest(output.path_result),
        "unassigned_order": [s.stream_id
                             for s, __ in output.path_result.unassigned],
        "table_order": [[region, [[sid, nxt, t.value]
                                  for sid, (nxt, t) in table.items()]]
                        for region, table in
                        output.path_result.forwarding_tables.items()],
        "capacity": {"add": output.capacity.add,
                     "remove": output.capacity.remove,
                     "target": output.capacity.target},
        "reaction_plans": [[sid, region, list(plan.relay_regions)]
                           for (sid, region), plan
                           in output.reaction_plans.items()],
    }


COHORT_N20 = "cohort_n20"


def cohort_n20() -> Dict:
    """Three control epochs on the 20-region planet over cohorts, two
    gateways per region (graph rebuilds and the best-effort pass both
    run), link state reported as the truth at each epoch."""
    from repro.controlplane.controller import Controller
    from repro.controlplane.nib import LinkReport
    from repro.experiments.base import planet_underlay
    from repro.traffic.cohorts import CohortWorkload
    from repro.traffic.demand import DemandModel
    from repro.underlay.snapshot import TYPE_ORDER

    underlay = planet_underlay(20, seed=7, horizon_s=1800.0)
    codes = underlay.codes
    demand = DemandModel(underlay.regions, seed=7)
    controller = Controller(
        codes, ControlConfig(), pricing=underlay.pricing,
        workload=CohortWorkload(seed=7, cohorts_per_pair=2), seed=7)
    epochs = []
    for e in range(3):
        now = 450.0 + 300.0 * e
        truth = underlay.snapshot(now)
        controller.nib.update_many([
            LinkReport(a, b, t, float(truth.lat[ti, i, j]),
                       float(truth.loss[ti, i, j]), now)
            for ti, t in enumerate(TYPE_ORDER)
            for i, a in enumerate(codes) for j, b in enumerate(codes)
            if i != j])
        matrix = TrafficMatrix.from_model(demand, 8 * 3600.0 + 300.0 * e)
        output = controller.run_epoch(now, matrix, {c: 2 for c in codes})
        epochs.append(output_digest(output))
    return {"epochs": epochs}


def fixture_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.json"


def load_fixture(name: str) -> Dict:
    return json.loads(fixture_path(name).read_text())


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, build in WORKLOADS.items():
        wl = build()
        digest = control_digest(wl, link_model_snapshot(wl.underlay, wl.now))
        out = fixture_path(name)
        out.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
        n_assign = len(digest["path_control"]["assignments"])
        print(f"{out}: {n_assign} assignments, "
              f"{digest['path_control']['graph_rebuilds']} rebuilds, "
              f"{len(digest['reaction_plans'])} plans")
    digest = cohort_n20()
    out = fixture_path(COHORT_N20)
    out.write_text(json.dumps(digest, sort_keys=True) + "\n")
    print(f"{out}: " + ", ".join(
        f"{len(e['path_control']['assignments'])} assignments / "
        f"{len(e['reaction_plans'])} plans" for e in digest["epochs"]))


if __name__ == "__main__":
    main()
