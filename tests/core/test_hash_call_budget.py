"""A machine-independent guard on the grid engine's cost model: the
stateless noise kernel is called once per process per instant, over the
whole pair or link axis — never once per pair or per link.

Before the batching a single `TrafficMatrix.from_model` made 22 calls
per pair and an epoch 4-6 more per hop: thousands at eleven regions.
Counting calls (not seconds) makes the guard exact and portable.
"""

import sys

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import EpochSimulator
from repro.core.variants import xron
from repro.sim import rng
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.config import UnderlayConfig
from repro.underlay.planet import PlanetConfig, generate_regions
from repro.underlay.topology import build_underlay

#: `hash_uniform` calls one simulated epoch may make, whatever the size
#: of the overlay: demand (13), the monitoring snapshot (4), the path
#: hops' series (4) and burst -> reaction pass (6), the backup hops'
#: series (4), and room for a second block of hops.
EPOCH_CALL_BOUND = 48


@pytest.fixture()
def hash_calls(monkeypatch):
    """Counts every `hash_uniform` call, through whichever module's
    namespace it is made."""
    original = rng.hash_uniform
    calls = []

    def counting(seed, t, salt=0):
        calls.append(salt)
        return original(seed, t, salt=salt)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, "hash_uniform", None) is original):
            monkeypatch.setattr(module, "hash_uniform", counting)
    return calls


def regions(n):
    """The first `n` of a generated 30-region planet."""
    return generate_regions(PlanetConfig(n_regions=30), seed=2)[:n]


def test_demand_matrix_calls_do_not_grow_with_pairs(hash_calls):
    counts = {}
    for n in (6, 30):
        model = DemandModel(regions(n), seed=2)
        del hash_calls[:]
        matrix = TrafficMatrix.from_model(model, 8 * 3600.0)
        assert len(matrix) == n * (n - 1)
        counts[n] = len(hash_calls)
    assert counts[6] == counts[30]
    assert 0 < counts[6] <= 16


def test_demand_model_construction_hashes_once_per_parameter(hash_calls):
    DemandModel(regions(30), seed=2)
    assert len(hash_calls) == 3  # preferred hour, magnitude, duration


@pytest.mark.parametrize("n", [6, 12])
def test_one_epoch_stays_under_a_fixed_bound(hash_calls, n):
    where = regions(n)
    underlay = build_underlay(where, UnderlayConfig(horizon_s=3600.0),
                              seed=2)
    simulator = EpochSimulator(
        underlay, DemandModel(where, seed=2), xron(),
        SimulationConfig(epoch_s=300.0, eval_step_s=5.0, seed=2))
    with simulator:
        underlay.snapshot(0.0)  # parameter matrices are built lazily
        del hash_calls[:]
        result = simulator.run(600.0, 300.0)
    assert result.latency_ms.shape == (n * (n - 1), 60)
    assert 0 < len(hash_calls) <= EPOCH_CALL_BOUND
