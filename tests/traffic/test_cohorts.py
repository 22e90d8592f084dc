"""Stream cohorts: aggregated session bundles for planet-scale SIBs."""

import numpy as np
import pytest

from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import path_control
from repro.core.config import SimulationConfig
from repro.core.simulator import EpochSimulator
from repro.core.variants import xron
from repro.sim.rng import RngStreams, hash_uniform
from repro.traffic.cohorts import MIX_JITTER, CohortWorkload
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import Stream, StreamTable, VIDEO_PROFILES
from repro.underlay.regions import default_regions
from repro.underlay.topology import build_underlay


@pytest.fixture(scope="module")
def matrix():
    demand = DemandModel(default_regions(), seed=3)
    return TrafficMatrix.from_model(demand, 8 * 3600.0)


def cohort_loop(matrix, seed, cohorts_per_pair):
    """The per-cohort scalar decomposition the array pass replaced:
    (src, dst, mbps, dominant profile, sessions, components) per cohort,
    components (profile name, sessions, mbps) in ascending bitrate."""
    by_rate = sorted(VIDEO_PROFILES, key=lambda p: p.bitrate_mbps)
    buckets = [list(chunk) for chunk in np.array_split(
        np.array(by_rate, dtype=object), min(cohorts_per_pair, len(by_rate)))]
    streams = RngStreams(seed)
    cohorts = []
    for (src, dst), demand in matrix.items():
        if demand <= 0:
            continue
        base = np.array([p.weight for p in by_rate])
        jitter = hash_uniform(streams.seed_for(f"cohort.{src}->{dst}"),
                              np.arange(len(by_rate)), salt=7)
        weights = base * (1.0 - MIX_JITTER / 2.0 + MIX_JITTER * jitter)
        per_profile = demand * (weights / weights.sum())
        idx = 0
        for bucket in buckets:
            mbps = sessions = 0.0
            components = []
            dominant, dominant_mbps = bucket[0], -1.0
            for profile in bucket:
                d = float(per_profile[idx])
                idx += 1
                if d <= 0:
                    continue
                n = d / profile.bitrate_mbps
                components.append((profile.name, n, d))
                mbps += d
                sessions += n
                if d > dominant_mbps:
                    dominant, dominant_mbps = profile, d
            if mbps > 0:
                cohorts.append((src, dst, mbps, dominant, sessions,
                                components))
    return cohorts


def test_cohorts_are_streams(matrix):
    table = CohortWorkload(seed=1).decompose(matrix)
    assert len(table)
    assert (table.sessions > 0).all()
    for c in table.streams():
        assert isinstance(c, Stream)
        assert c.demand_mbps > 0
        assert c.session_count >= 1


def test_decompose_is_deterministic_per_seed(matrix):
    def columns(table):
        return [table.stream_id.tolist(), table.src.tolist(),
                table.dst.tolist(), table.mbps.tolist(),
                table.profile.tolist(), table.sessions.tolist()]

    a = CohortWorkload(seed=1).decompose(matrix)
    b = CohortWorkload(seed=1).decompose(matrix)
    assert columns(a) == columns(b)
    c = CohortWorkload(seed=2).decompose(matrix)
    assert a.mbps.tolist() != c.mbps.tolist()


def test_demand_is_conserved(matrix):
    cohorts = CohortWorkload(seed=1, cohorts_per_pair=3).decompose(matrix)
    assert sum(cohorts.mbps.tolist()) == pytest.approx(matrix.total(),
                                                       rel=1e-9)
    # Every positive pair is decomposed: none is dropped, and each
    # pair's cohorts carry its demand.
    per_pair = {}
    for c in cohorts.streams():
        per_pair[(c.src, c.dst)] = per_pair.get((c.src, c.dst), 0.0) \
            + c.demand_mbps
    assert set(per_pair) == {pair for pair, d in matrix.items() if d > 0}
    for (src, dst), mbps in per_pair.items():
        assert mbps == pytest.approx(matrix.get(src, dst), rel=1e-9)


def test_memory_is_bounded_by_pairs(matrix):
    n_pairs = sum(1 for __, d in matrix.items() if d > 0)
    for k in (1, 2, 4):
        cohorts = CohortWorkload(seed=1, cohorts_per_pair=k).decompose(matrix)
        assert len(cohorts) <= n_pairs * k


def test_columns_equal_the_per_cohort_loop(matrix):
    """The array pass is the per-cohort loop bit for bit — Mbps and
    sessions summed profile by profile left to right, the dominant
    profile the first maximum — and a cohort's sessions at its
    profiles' bitrates carry its demand."""
    rates = {p.name: p.bitrate_mbps for p in VIDEO_PROFILES}
    for cohorts_per_pair in (1, 2, 3, 6, 9):
        table = CohortWorkload(seed=1, cohorts_per_pair=cohorts_per_pair
                               ).decompose(matrix.scaled(0.01))
        expected = cohort_loop(matrix.scaled(0.01), 1, cohorts_per_pair)
        codes = table.codes
        assert len(table) == len(expected)
        for k, (src, dst, mbps, dominant, sessions, components) in \
                enumerate(expected):
            assert (codes[table.src[k]], codes[table.dst[k]]) == (src, dst)
            assert table.mbps[k].hex() == mbps.hex()
            assert table.sessions[k].hex() == sessions.hex()
            assert VIDEO_PROFILES[table.profile[k]] is dominant
            assert sum(n * rates[name] for name, n, __ in components) == \
                pytest.approx(mbps, rel=1e-12)
        assert table.stream_id.tolist() == list(range(len(expected)))


def test_export_import_round_trip(matrix):
    w = CohortWorkload(seed=1)
    w.decompose(matrix)
    state = w.export_state()
    fresh = CohortWorkload(seed=1)
    fresh.import_state(state)
    # Fresh ids continue after the imported counter, never reused.
    next_cohorts = fresh.decompose(matrix)
    assert int(next_cohorts.stream_id.min()) == state["next_id"]


def test_validation():
    with pytest.raises(ValueError):
        CohortWorkload(cohorts_per_pair=0)
    with pytest.raises(ValueError, match="negative sessions"):
        StreamTable(["A", "B"], [1], [0], [1], [1.0], [0], [-1.0])
    with pytest.raises(ValueError, match="negative demand"):
        StreamTable(["A", "B"], [1], [0], [1], [-1.0], [0], [1.0])
    with pytest.raises(ValueError, match="src == dst"):
        StreamTable(["A", "B"], [1], [1], [1], [1.0], [0], [1.0])


def test_path_control_accepts_cohorts(matrix):
    u = build_underlay(seed=2)
    cohorts = CohortWorkload(seed=1).decompose(matrix)
    snap = u.snapshot(3600.0)
    result = path_control(cohorts, u.codes, snap, ControlConfig(),
                          gateways={c: 8 for c in u.codes}, fees=u.pricing)
    assert result.total_assigned_mbps() > 0


def test_epoch_simulator_runs_with_cohorts():
    u = build_underlay(seed=2)
    demand = DemandModel(default_regions(), seed=3)
    cfg = SimulationConfig(epoch_s=300.0, eval_step_s=60.0, seed=2,
                           stream_cohorts=True)
    result = EpochSimulator(u, demand, xron(), sim_config=cfg).run(
        start_s=0.0, duration_s=600.0)
    assert result.latency_ms.size > 0
    assert np.isfinite(result.latency_ms).any()
