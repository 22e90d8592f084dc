"""A machine-independent guard on the event engine's monitoring cost
model: a probing instant is array work per cluster, not object work per
link.

Before the banks and batches a paper-scale instant built ~440 probe
bursts and 220 link reports, pushed the reports into the NIB one by one
and binary-searched every link's timeline twice.  Counting calls (not
seconds) makes the guard exact and portable.
"""

import numpy as np
import pytest

from repro.controlplane.nib import LinkReport, NetworkInformationBase
from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.dataplane.cluster import RegionCluster
from repro.dataplane.probing import ProbeBurst
from repro.traffic.demand import DemandModel
from repro.underlay.regions import default_regions
from repro.underlay.topology import Underlay

START_S = 8 * 3600.0
#: 0.4 s probing steps in the run (after the boot round at `START_S`).
STEPS = 12


@pytest.fixture()
def calls(monkeypatch):
    """Call counts of the per-link and per-round entry points."""
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
    for owner, attr in ((LinkReport, "__init__"), (ProbeBurst, "__init__"),
                        (RegionCluster, "probe_round"),
                        (NetworkInformationBase, "update"),
                        (NetworkInformationBase, "update_many")):
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


def test_a_probing_instant_is_array_work(full_underlay, calls):
    engine = EventDrivenXRON(
        full_underlay, DemandModel(default_regions(), seed=3),
        sim_config=SimulationConfig(epoch_s=30.0, seed=3))
    # Wherever another test left the shared underlay's segment memo,
    # start this run from a jump.
    full_underlay.state_at(0.0)
    del calls["per_snapshot"][:]
    with engine:
        engine.run(START_S, 0.4 * STEPS + 0.2)
    clusters = len(full_underlay.codes)
    # The boot round of the first control epoch, then the periodic ones.
    rounds = (1 + STEPS + 1) * clusters
    links = 2 * clusters * (clusters - 1)

    # Nobody iterated a batch, so no per-link object was ever built.
    assert calls["LinkReport.__init__"] == 0
    assert calls["ProbeBurst.__init__"] == 0

    # The NIB took every cluster round as one batch.
    assert calls["RegionCluster.probe_round"] == rounds
    assert calls["NetworkInformationBase.update_many"] == rounds
    assert calls["NetworkInformationBase.update"] == 0

    # One snapshot per probing instant and per measurement tick that
    # falls between two; the first searches every link's timeline once,
    # a step of 0.4 s or less only the few links whose timeline changed
    # piece.
    per_snapshot = calls["per_snapshot"]
    assert STEPS + 1 <= len(per_snapshot) <= STEPS + 1 + 5
    assert 0 < per_snapshot[0] <= links
    assert max(per_snapshot[1:]) < 10
    assert sum(per_snapshot[1:]) < 4 * len(per_snapshot)
