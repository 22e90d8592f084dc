"""A machine-independent guard on the event engine's monitoring cost
model: a probing instant is one array pass over every region, not work
per cluster, let alone objects per link; and the underlay's truth and
the bursts' draws are evaluated per block of instants, not per instant.

Before the banks and batches a paper-scale instant built ~440 probe
bursts and 220 link reports, pushed the reports into the NIB one by one
and binary-searched every link's timeline twice; before the monitoring
block it still ran one round, one median and one NIB batch per region;
before the blocks every instant built a whole snapshot of the underlay
and hashed its own draws; before the NIB queued its batches every
instant wrote the rings, and every per-region slice of the reports
checked their ranges again.  Counting calls (not seconds) makes the
guard exact and portable.
"""

import math
import sys

import numpy as np
import pytest

from repro.controlplane import membership
from repro.controlplane import nib as nib_module
from repro.controlplane.nib import (LinkReport, NetworkInformationBase,
                                    ReportBatch)
from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.dataplane.estimator import EstimatorBank
from repro.dataplane.grouping import ProbingGroupManager
from repro.faults import FaultSchedule, probe_blackout
from repro.faults.runtime import FaultInjector
from repro.dataplane.probing import BurstNoise
from repro.traffic.demand import DemandModel
from repro.underlay.events import EventTimeline
from repro.underlay.snapshot import LinkStateSnapshot, LinkTable

START_S = 3600.0
#: 0.4 s probing steps in the run (after the boot round at `START_S`):
#: a little over two 30 s epochs.
STEPS = 160

#: What one probing instant calls, whatever the region count: one range
#: check, of the batch `aggregate` makes (the membership table's
#: per-region slices are rows of a checked batch).
PER_INSTANT = {"NetworkInformationBase.update_many": 1,
               "ProbingGroupManager.aggregate": 1,
               "EstimatorBank.ingest": 1,
               "ReportBatch.__post_init__": 1,
               "LinkReport.__init__": 0,
               "FaultInjector.probe_blackout": 1}


@pytest.fixture()
def calls(monkeypatch):
    """Call counts of the per-link, per-instant and per-block entry
    points; each reader's blocks, by the reader."""
    counts = {}

    def count(owner, attr, name=None):
        original = getattr(owner, attr)
        name = name or f"{owner.__name__}.{attr}"
        counts[name] = 0

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counting)

    for owner, attr in ((LinkReport, "__init__"),
                        (NetworkInformationBase, "update_many"),
                        (ProbingGroupManager, "aggregate"),
                        (EstimatorBank, "ingest"),
                        (ReportBatch, "__post_init__"),
                        (FaultInjector, "probe_blackout"),
                        (EventTimeline, "cover"),
                        (LinkTable, "block")):
        count(owner, attr)
    from_underlay = LinkStateSnapshot.from_underlay
    counts["from_underlay"] = 0

    def counted_snapshot(underlay, t):
        counts["from_underlay"] += 1
        return from_underlay(underlay, t)
    monkeypatch.setattr(LinkStateSnapshot, "from_underlay",
                        staticmethod(counted_snapshot))

    #: Each reader -> the instants of each block it evaluated, and the
    #: instants it was asked for.
    counts["blocks"], counts["read"] = {}, {}
    fill, at = BurstNoise._fill, BurstNoise.at

    def filling(self, now):
        fill(self, now)
        counts["blocks"].setdefault(self, []).append(len(self._rows))

    def reading(self, now):
        counts["read"].setdefault(self, set()).add(now)
        return at(self, now)
    monkeypatch.setattr(BurstNoise, "_fill", filling)
    monkeypatch.setattr(BurstNoise, "at", reading)
    return counts


def _run(underlay, calls):
    """Per-instant call counts, the readers' blocks, the timeline
    searches and the result of a run of two epochs on `underlay`, under
    a blackout of one region's links early on (the blackout query is
    made once per instant, blacked out or not), with the membership
    table taking every region's slice of the reports."""
    engine = EventDrivenXRON(
        underlay, DemandModel(underlay.regions, seed=3),
        sim_config=SimulationConfig(epoch_s=30.0, seed=3),
        faults=FaultSchedule.of(probe_blackout(START_S + 1.0, 2.0,
                                               region=underlay.codes[1])),
        membership=membership())
    instants = []
    probe_round = engine._probe_round

    def counted(sim):
        before = {name: calls[name] for name in PER_INSTANT}
        probe_round(sim)
        instants.append({name: calls[name] - before[name]
                         for name in PER_INSTANT})
    engine._probe_round = counted
    # Wherever another test left the shared underlay's piece window,
    # start this run from a jump out of it.
    underlay.snapshot(0.0)
    calls["blocks"].clear()
    calls["read"].clear()
    for name in ("EventTimeline.cover", "LinkTable.block", "from_underlay"):
        calls[name] = 0
    with engine:
        result = engine.run(START_S, 0.4 * STEPS + 0.2)
    return instants, result


def test_a_probing_instant_is_array_work(full_underlay, small_underlay,
                                         calls):
    for underlay in (small_underlay, full_underlay):
        instants, result = _run(underlay, calls)
        eventful = sum(1 for timeline in underlay.table.timelines.values()
                       if len(timeline))

        # The boot round of the first control epoch, then the periodic
        # ones; at 4 regions as at 11, each is one NIB batch, one median
        # call, one ingest, one blackout query, and no per-link object.
        assert len(instants) == 1 + STEPS + 1
        assert instants == [PER_INSTANT] * len(instants)
        assert calls["LinkReport.__init__"] == 0
        assert result.fault_counters["probes_blacked_out"] > 0

        # No snapshot inside the run: the probe and measure readers'
        # blocks are the only truth evaluations, at most one per
        # `length` instants of a reader, plus its first instant's block
        # of its own and the last one the run cuts short.
        assert calls["from_underlay"] == 0
        blocks = calls["blocks"]
        assert len(blocks) == 2
        for reader, sizes in blocks.items():
            read = len(calls["read"][reader])
            assert sizes[0] == 1
            assert len(sizes) <= math.ceil(read / reader.length) + 2
        assert max(map(len, blocks.values())) > 2
        assert calls["LinkTable.block"] == sum(map(len, blocks.values()))
        # The jump searches each timeline with events at most once, for
        # one piece window that holds the whole run; no instant searches.
        assert 0 < calls["EventTimeline.cover"] <= eventful


#: `hash_uniform` calls one block of instants may make, whatever the
#: region count or the block's length: the burst kernel's one, plus the
#: underlay's four jitter blocks when it opens new seconds (`hash_noise`,
#: two uniforms each, over every second missing from the memo at once).
HASH_CALLS_PER_BLOCK = 1 + 4


@pytest.mark.parametrize("regions", [4, 11], ids=lambda n: f"n{n:02d}")
def test_an_instant_draws_by_hash_alone(full_underlay, small_underlay,
                                        monkeypatch, regions):
    """No `numpy.random.Generator` method runs in a probing instant or a
    measurement tick, and the hashed draws are a fixed number of hash
    passes per block of instants — not a number per instant, region,
    link or gateway; an instant that reads a row hashes nothing."""
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
    blocks = []
    fill = BurstNoise._fill

    def filling(self, now):
        before = hashed[0]
        fill(self, now)
        blocks.append(hashed[0] - before)
    monkeypatch.setattr(BurstNoise, "_fill", filling)

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
    assert all(count <= HASH_CALLS_PER_BLOCK for count in blocks)
    assert sum(count for __, count, __ in instants) == sum(blocks)
    # Two one-instant blocks open the readers' grids; after them, a
    # block per 75 instants of a reader.
    assert len(blocks) <= 2 + 2 + len(instants) / 75


def test_the_rings_are_written_when_read(small_underlay, monkeypatch):
    """No report reaches the controller NIB's rings between two of its
    reads: the probing instants queue their batches, and the next read
    folds them all — except the folds the queue's bound forces, which a
    bound of 20 batches makes happen here."""
    engine = EventDrivenXRON(
        small_underlay, DemandModel(small_underlay.regions, seed=3),
        sim_config=SimulationConfig(epoch_s=30.0, seed=3))
    nib = engine.controller.nib
    links = nib._ring_total.size
    monkeypatch.setattr(nib_module, "FOLD_SLOTS", 20 * links)
    reading, folds = [0], []

    def read(name):
        original = getattr(NetworkInformationBase, name)

        def counted(self, *args):
            reading[0] += self is nib
            try:
                return original(self, *args)
            finally:
                reading[0] -= self is nib
        monkeypatch.setattr(NetworkInformationBase, name, counted)

    for name in ("__len__", "latest_snapshot", "robust_snapshot",
                 "export_reports"):
        read(name)
    fold = NetworkInformationBase._fold

    def folding(self):
        if self is nib and self._pending:
            folds.append((bool(reading[0]), len(self._pending)))
        fold(self)
    monkeypatch.setattr(NetworkInformationBase, "_fold", folding)
    with engine:
        engine.run(START_S, 0.4 * STEPS + 0.2)

    on_read = [batches for read_, batches in folds if read_]
    on_bound = [batches for read_, batches in folds if not read_]
    # The boot epoch reads the boot round's batch; each of the next two
    # reads what the bound left of its 75 instants.  What the run ends
    # with is still queued.
    assert on_read == [1, 15, 15] and on_bound == [20] * 6
    assert sum(on_read + on_bound) + len(nib._pending) == STEPS + 2
