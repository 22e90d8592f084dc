"""Golden equivalence + tier classification for incremental path control.

The acceptance bar: whatever reuse tier the engine picks, its epoch
outputs are bit-identical (value-wise) to a fresh monolithic solve on
the same inputs — including the quality-mask threshold-crossing edge
case, where a previously-lossy link becomes usable and a full warm
re-solve must happen.
"""

import copy
from dataclasses import replace

import pytest

from repro import obs
from repro.controlplane.incremental import (IncrementalEngine, TIER_COLD,
                                            TIER_IDENTICAL, TIER_MASKED,
                                            TIER_WARM)
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_INDEX
from tests.controlplane.golden_workloads import (WORKLOADS, control_digest,
                                                 outputs_digest)

II = TYPE_INDEX[LinkType.INTERNET]
PI = TYPE_INDEX[LinkType.PREMIUM]


@pytest.fixture(scope="module")
def wl():
    return WORKLOADS["paper_scale"]()


@pytest.fixture(scope="module")
def wl64(wl):
    """paper_scale with enough gateways that no stream needs the
    best-effort fallback pass — the masked tier requires a clean solve."""
    rich = copy.copy(wl)
    rich.gateways = {c: 64 for c in wl.codes}
    return rich


def _epoch(engine, wl, snap, streams=None):
    streams = streams if streams is not None else wl.streams
    tier = engine.begin_epoch(streams, wl.codes, snap, wl.config,
                              wl.gateways, wl.fees)
    r_cur = engine.path_control()
    decision = engine.capacity_control()
    plans = engine.reaction_plans(wl.config.loss_ms_penalty)
    engine.commit()
    return tier, r_cur, decision, plans


def _mono_digest(wl, snap, streams=None):
    """A fresh monolithic solve of the same epoch, digested."""
    if streams is not None:
        wl = copy.copy(wl)
        wl.streams = streams
    return control_digest(wl, snap)


class TestMultiEpoch:
    def test_every_epoch_matches_monolithic(self, wl):
        engine = IncrementalEngine()
        tiers = []
        for k in range(3):
            snap = wl.underlay.snapshot(wl.now + 600.0 * k)
            tier, r, d, p = _epoch(engine, wl, snap)
            tiers.append(tier)
            assert outputs_digest(r, d, p) == _mono_digest(
                wl, wl.underlay.snapshot(wl.now + 600.0 * k)), \
                f"epoch {k} ({tier}) diverged"
        assert tiers[0] == TIER_COLD
        assert TIER_WARM in tiers[1:]


class TestReuseTiers:
    def test_identical_snapshot_full_reuse(self, wl):
        engine = IncrementalEngine()
        __, r1, d1, p1 = _epoch(engine, wl, wl.underlay.snapshot(wl.now))
        # A *distinct but value-equal* snapshot: the delta is empty.
        tier, r2, d2, p2 = _epoch(engine, wl, wl.underlay.snapshot(wl.now))
        assert tier == TIER_IDENTICAL
        assert r2 is r1 and d2 is d1 and p2 is p1

    def test_masked_internet_change_full_reuse(self, wl64):
        snap1 = wl64.underlay.snapshot(wl64.now)
        snap2 = wl64.underlay.snapshot(wl64.now)
        # One Internet link lossy beyond the quality limit in both
        # epochs; its latency and loss both move between them.
        snap1.loss[II, 0, 1] = 0.05
        snap2.loss[II, 0, 1] = 0.09
        snap2.lat[II, 0, 1] = snap1.lat[II, 0, 1] + 3.0
        engine = IncrementalEngine()
        __, r1, d1, p1 = _epoch(engine, wl64, snap1)
        assert r1.fallback_streams == 0  # masked-tier precondition holds
        tier, r2, d2, p2 = _epoch(engine, wl64, snap2)
        assert tier == TIER_MASKED
        assert r2 is r1 and d2 is d1 and p2 is p1
        # The reuse is not just plausible — it matches a fresh solve.
        snap2b = wl64.underlay.snapshot(wl64.now)
        snap2b.loss[II, 0, 1] = 0.09
        snap2b.lat[II, 0, 1] = snap1.lat[II, 0, 1] + 3.0
        assert outputs_digest(r2, d2, p2) == _mono_digest(wl64, snap2b)

    def test_lossy_change_with_fallback_streams_resolves(self, wl):
        """Same masked-looking delta, but the base epoch ran the
        best-effort pass (which ignores the loss mask) — must re-solve."""
        snap1 = wl.underlay.snapshot(wl.now)
        snap2 = wl.underlay.snapshot(wl.now)
        snap1.loss[II, 0, 1] = 0.05
        snap2.loss[II, 0, 1] = 0.09
        engine = IncrementalEngine()
        __, r1, __, __ = _epoch(engine, wl, snap1)
        assert r1.fallback_streams > 0
        tier, r2, d2, p2 = _epoch(engine, wl, snap2)
        assert tier == TIER_WARM
        snap2b = wl.underlay.snapshot(wl.now)
        snap2b.loss[II, 0, 1] = 0.09
        assert outputs_digest(r2, d2, p2) == _mono_digest(wl, snap2b)

    def test_quality_mask_threshold_crossing_resolves(self, wl):
        """A lossy link recovering below the loss limit MUST re-solve."""
        snap1 = wl.underlay.snapshot(wl.now)
        snap1.loss[II, 0, 1] = 0.05
        snap2 = wl.underlay.snapshot(wl.now)
        snap2.loss[II, 0, 1] = 0.001  # crosses under loss_limit=0.005
        engine = IncrementalEngine()
        _epoch(engine, wl, snap1)
        tier, r2, d2, p2 = _epoch(engine, wl, snap2)
        assert tier == TIER_WARM
        snap2b = wl.underlay.snapshot(wl.now)
        snap2b.loss[II, 0, 1] = 0.001
        assert outputs_digest(r2, d2, p2) == _mono_digest(wl, snap2b)

    def test_premium_changes_are_never_masked(self, wl):
        snap1 = wl.underlay.snapshot(wl.now)
        snap2 = wl.underlay.snapshot(wl.now)
        snap1.loss[PI, 0, 1] = 0.05
        snap2.loss[PI, 0, 1] = 0.09  # above limit both epochs, but premium
        engine = IncrementalEngine()
        _epoch(engine, wl, snap1)
        tier, r2, d2, p2 = _epoch(engine, wl, snap2)
        assert tier == TIER_WARM
        snap2b = wl.underlay.snapshot(wl.now)
        snap2b.loss[PI, 0, 1] = 0.09
        assert outputs_digest(r2, d2, p2) == _mono_digest(wl, snap2b)

    def test_demand_change_forces_resolve(self, wl):
        engine = IncrementalEngine()
        snap = wl.underlay.snapshot(wl.now)
        _epoch(engine, wl, snap)
        bumped = ([replace(wl.streams[0],
                           demand_mbps=wl.streams[0].demand_mbps + 1.0)]
                  + list(wl.streams[1:]))
        tier, r2, d2, p2 = _epoch(engine, wl, wl.underlay.snapshot(wl.now),
                                  streams=bumped)
        assert tier == TIER_WARM
        assert outputs_digest(r2, d2, p2) == _mono_digest(
            wl, wl.underlay.snapshot(wl.now), streams=bumped)


class TestWarmSeeding:
    def test_small_delta_seeds_pairs_and_walks(self, wl):
        snap1 = wl.underlay.snapshot(wl.now)
        snap2 = wl.underlay.snapshot(wl.now)
        snap2.lat[II, 0, 1] = snap1.lat[II, 0, 1] + 0.25
        engine = IncrementalEngine()
        _epoch(engine, wl, snap1)
        with obs.capture() as hub:
            tier, r2, d2, p2 = _epoch(engine, wl, snap2)
        assert tier == TIER_WARM
        metrics = hub.metrics.snapshot()
        assert metrics["pathcontrol.incremental_seeded_pairs"]["value"] > 0
        assert metrics["pathcontrol.incremental_seeded_walks"]["value"] > 0
        snap2b = wl.underlay.snapshot(wl.now)
        snap2b.lat[II, 0, 1] = snap1.lat[II, 0, 1] + 0.25
        assert outputs_digest(r2, d2, p2) == _mono_digest(wl, snap2b)
