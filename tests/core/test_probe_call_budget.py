"""A machine-independent guard on the event engine's monitoring cost
model: a probing instant is one array pass over every region, not work
per cluster, let alone objects per link.

Before the banks and batches a paper-scale instant built ~440 probe
bursts and 220 link reports, pushed the reports into the NIB one by one
and binary-searched every link's timeline twice; before the monitoring
block it still ran one round, one median and one NIB batch per region.
Counting calls (not seconds) makes the guard exact and portable.
"""

import sys

import numpy as np
import pytest

from repro.controlplane.nib import LinkReport, NetworkInformationBase
from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.dataplane.estimator import EstimatorBank
from repro.dataplane.grouping import ProbingGroupManager
from repro.faults import FaultSchedule, probe_blackout
from repro.faults.runtime import FaultInjector
from repro.traffic.demand import DemandModel
from repro.underlay.topology import Underlay

START_S = 3600.0
#: 0.4 s probing steps in the run (after the boot round at `START_S`).
STEPS = 12

#: What one probing instant calls, whatever the region count.
PER_INSTANT = {"NetworkInformationBase.update_many": 1,
               "ProbingGroupManager.aggregate": 1,
               "EstimatorBank.ingest": 1,
               "LinkReport.__init__": 0,
               "FaultInjector.probe_blackout": 1}


@pytest.fixture()
def calls(monkeypatch):
    """Call counts of the per-link and per-instant entry points."""
    counts = {}

    def count(owner, attr, name=None):
        original = getattr(owner, attr)
        name = name or f"{owner.__name__}.{attr}"
        counts[name] = 0

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counting)

    count(np, "searchsorted", "searchsorted")
    for owner, attr in ((LinkReport, "__init__"),
                        (NetworkInformationBase, "update_many"),
                        (ProbingGroupManager, "aggregate"),
                        (EstimatorBank, "ingest"),
                        (FaultInjector, "probe_blackout")):
        count(owner, attr)

    #: `searchsorted` calls inside each `Underlay.snapshot`, in order.
    counts["per_snapshot"] = []
    snapshot = Underlay.snapshot

    def bracketed(self, t):
        before = counts["searchsorted"]
        result = snapshot(self, t)
        counts["per_snapshot"].append(counts["searchsorted"] - before)
        return result
    monkeypatch.setattr(Underlay, "snapshot", bracketed)
    return counts


def _run(underlay, calls):
    """Per-instant call counts, the snapshots' timeline searches and
    the result of a short run on `underlay`, under a blackout of one
    region's links over its middle (the blackout query is made once
    per instant, blacked out or not)."""
    engine = EventDrivenXRON(
        underlay, DemandModel(underlay.regions, seed=3),
        sim_config=SimulationConfig(epoch_s=30.0, seed=3),
        faults=FaultSchedule.of(probe_blackout(START_S + 1.0, 2.0,
                                               region=underlay.codes[1])))
    instants = []
    probe_round = engine._probe_round

    def counted(sim):
        before = {name: calls[name] for name in PER_INSTANT}
        probe_round(sim)
        instants.append({name: calls[name] - before[name]
                         for name in PER_INSTANT})
    engine._probe_round = counted
    # Wherever another test left the shared underlay's segment memo,
    # start this run from a jump.
    underlay.state_at(0.0)
    del calls["per_snapshot"][:]
    with engine:
        result = engine.run(START_S, 0.4 * STEPS + 0.2)
    return instants, list(calls["per_snapshot"]), result


def test_a_probing_instant_is_array_work(full_underlay, small_underlay,
                                         calls):
    for underlay in (small_underlay, full_underlay):
        instants, per_snapshot, result = _run(underlay, calls)
        regions = len(underlay.codes)
        links = 2 * regions * (regions - 1)

        # The boot round of the first control epoch, then the periodic
        # ones; at 4 regions as at 11, each is one NIB batch, one median
        # call, one ingest, one blackout query, and no per-link object.
        assert len(instants) == 1 + STEPS + 1
        assert instants == [PER_INSTANT] * len(instants)
        assert calls["LinkReport.__init__"] == 0
        assert result.fault_counters["probes_blacked_out"] > 0

        # One snapshot per probing instant and per measurement tick that
        # falls between two; the first searches every link's timeline
        # once, a step of 0.4 s or less only the few links whose
        # timeline changed piece.
        assert STEPS + 1 <= len(per_snapshot) <= STEPS + 1 + 5
        assert 0 < per_snapshot[0] <= links
        assert max(per_snapshot[1:]) < 10
        assert sum(per_snapshot[1:]) < 4 * len(per_snapshot)


#: `hash_uniform` calls one instant may make, whatever the region count:
#: the burst kernel's one, plus the underlay's four jitter blocks when
#: the instant opens a new second (`hash_noise`, two uniforms each).
HASH_CALLS_PER_INSTANT = 1 + 4


@pytest.mark.parametrize("regions", [4, 11], ids=lambda n: f"n{n:02d}")
def test_an_instant_draws_by_hash_alone(full_underlay, small_underlay,
                                        monkeypatch, regions):
    """No `numpy.random.Generator` method runs in a probing instant or a
    measurement tick, and the hashed draws are a fixed number of blocks
    per instant — not a number per region, link or gateway."""
    from repro.dataplane import probing
    from repro.sim import rng

    underlay = full_underlay if regions == 11 else small_underlay
    engine = EventDrivenXRON(
        underlay, DemandModel(underlay.regions, seed=3),
        sim_config=SimulationConfig(epoch_s=30.0, seed=3),
        measure_interval_s=0.5)
    hashed = [0]
    for module in (probing, rng):
        original = module.hash_uniform

        def counting(*args, _original=original, **kwargs):
            hashed[0] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, "hash_uniform", counting)

    instants = []
    for name in ("_probe_round", "_measure"):
        watched = getattr(engine, name)

        def watching(sim, _watched=watched, _name=name):
            drawn = []

            def profile(frame, event, arg):
                if (event == "c_call" and isinstance(
                        getattr(arg, "__self__", None), np.random.Generator)):
                    drawn.append(arg.__name__)
            before, previous = hashed[0], sys.getprofile()
            sys.setprofile(profile)
            try:
                _watched(sim)
            finally:
                sys.setprofile(previous)
            instants.append((_name, hashed[0] - before, drawn))
        setattr(engine, name, watching)
    with engine:
        engine.run(3600.0, 0.4 * STEPS + 0.2)

    kinds = {name for name, __, __ in instants}
    assert kinds == {"_probe_round", "_measure"}
    assert all(drawn == [] for __, __, drawn in instants)
    # (The boot round and the first periodic round share an instant:
    # the second finds its draws evaluated.)
    assert all(count <= HASH_CALLS_PER_INSTANT for __, count, __ in instants)
