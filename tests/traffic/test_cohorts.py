"""Stream cohorts: aggregated session bundles for planet-scale SIBs."""

import numpy as np
import pytest

from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import path_control
from repro.core.config import SimulationConfig
from repro.core.simulator import EpochSimulator
from repro.core.variants import xron
from repro.traffic.cohorts import CohortWorkload, StreamCohort
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import Stream, VIDEO_PROFILES
from repro.underlay.regions import default_regions
from repro.underlay.topology import build_underlay


@pytest.fixture(scope="module")
def matrix():
    demand = DemandModel(default_regions(), seed=3)
    return TrafficMatrix.from_model(demand, 8 * 3600.0)


def test_cohorts_are_streams(matrix):
    cohorts = CohortWorkload(seed=1).decompose(matrix)
    assert cohorts
    for c in cohorts:
        assert isinstance(c, Stream)
        assert isinstance(c, StreamCohort)
        assert c.demand_mbps > 0
        assert c.sessions > 0
        assert c.session_count >= 1


def test_decompose_is_deterministic_per_seed(matrix):
    a = CohortWorkload(seed=1).decompose(matrix)
    b = CohortWorkload(seed=1).decompose(matrix)
    assert [(c.src, c.dst, c.demand_mbps, c.sessions, c.components)
            for c in a] == \
           [(c.src, c.dst, c.demand_mbps, c.sessions, c.components)
            for c in b]
    c = CohortWorkload(seed=2).decompose(matrix)
    assert [(x.demand_mbps, x.components) for x in a] != \
           [(x.demand_mbps, x.components) for x in c]


def test_demand_is_conserved(matrix):
    cohorts = CohortWorkload(seed=1, cohorts_per_pair=3).decompose(matrix)
    total = sum(c.demand_mbps for c in cohorts)
    assert total == pytest.approx(matrix.total(), rel=1e-9)
    # Every positive pair is decomposed: none is dropped.
    assert {(c.src, c.dst) for c in cohorts} == \
        {pair for pair, d in matrix.items() if d > 0}
    # Per-cohort: component demands sum to the cohort demand.
    for c in cohorts:
        assert sum(d for (__, __, d) in c.components) == \
            pytest.approx(c.demand_mbps, rel=1e-9)


def test_memory_is_bounded_by_pairs(matrix):
    n_pairs = sum(1 for __, d in matrix.items() if d > 0)
    for k in (1, 2, 4):
        cohorts = CohortWorkload(seed=1, cohorts_per_pair=k).decompose(matrix)
        assert len(cohorts) <= n_pairs * k


def test_components_reconstruct_equivalent_sessions(matrix):
    """A component's sessions at its profile's bitrate carry its demand
    exactly, and its cohort's session count is their sum."""
    rates = {p.name: p.bitrate_mbps for p in VIDEO_PROFILES}
    for c in CohortWorkload(seed=1).decompose(matrix)[:40]:
        for name, sessions, mbps in c.components:
            assert sessions * rates[name] == pytest.approx(mbps, rel=1e-12)
        assert sum(s for __, s, __ in c.components) == \
            pytest.approx(c.sessions, rel=1e-12)


def test_export_import_round_trip(matrix):
    w = CohortWorkload(seed=1)
    w.decompose(matrix)
    state = w.export_state()
    fresh = CohortWorkload(seed=1)
    fresh.import_state(state)
    # Fresh ids continue after the imported counter, never reused.
    next_cohorts = fresh.decompose(matrix)
    assert min(c.stream_id for c in next_cohorts) == state["next_id"]


def test_validation():
    with pytest.raises(ValueError):
        CohortWorkload(cohorts_per_pair=0)
    with pytest.raises(ValueError):
        StreamCohort(1, "A", "B", 1.0, VIDEO_PROFILES[0], sessions=-1.0)


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
