"""A machine-independent guard on the grid engine's cost model: the
stateless noise kernel is called once per process per instant, over the
whole pair or link axis — never once per pair or per link.

Before the batching a single `TrafficMatrix.from_model` made 22 calls
per pair and an epoch 4-6 more per hop: thousands at eleven regions.
Counting calls (not seconds) makes the guard exact and portable.
"""

import sys

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import EpochSimulator
from repro.core.variants import xron
from repro.sim import rng
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.config import UnderlayConfig
from repro.underlay.planet import generate_regions
from repro.underlay.topology import Underlay, build_underlay

#: `hash_uniform` calls one simulated epoch may make, whatever the size
#: of the overlay.  An epoch makes 26: demand 13; the monitoring
#: snapshot 4 (two uniforms for each of the two jitter factors, over
#: every link, once — its instant opens a new second); two
#: `link_series` blocks of 4 each (the path hops on the union of the
#: eval and burst grids, the backup hops on the eval grid), each call
#: over hops x distinct seconds; and one for the burst pass's own
#: draws.  The rest is room for a second block of path hops (4 + 1), of
#: backup hops (4), and thirteen to spare.
EPOCH_CALL_BOUND = 48


@pytest.fixture()
def hash_calls(monkeypatch):
    """The elements hashed by every `hash_uniform` call, one entry per
    call, through whichever module's namespace it is made."""
    original = rng.hash_uniform
    calls = []

    def counting(seed, t, salt=0):
        calls.append(np.broadcast(seed, t).size)
        return original(seed, t, salt=salt)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, "hash_uniform", None) is original):
            monkeypatch.setattr(module, "hash_uniform", counting)
    return calls


def regions(n):
    """The first `n` of a generated 30-region planet."""
    return generate_regions(30, seed=2)[:n]


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


def one_epoch_simulator(n):
    """A grid engine over `n` regions, ready to run one 300 s epoch."""
    where = regions(n)
    underlay = build_underlay(where, UnderlayConfig(horizon_s=3600.0),
                              seed=2)
    simulator = EpochSimulator(
        underlay, DemandModel(where, seed=2), xron(),
        SimulationConfig(epoch_s=300.0, eval_step_s=5.0, seed=2))
    underlay.snapshot(0.0)  # parameter matrices are built lazily
    return simulator


@pytest.mark.parametrize("n", [6, 12])
def test_one_epoch_stays_under_a_fixed_bound(hash_calls, n):
    with one_epoch_simulator(n) as simulator:
        del hash_calls[:]
        result = simulator.run(600.0, 300.0)
    assert result.latency_ms.shape == (n * (n - 1), 60)
    assert 0 < len(hash_calls) <= EPOCH_CALL_BOUND


@pytest.mark.parametrize("n", [6, 12])
def test_link_series_hashes_each_link_second_once(hash_calls, monkeypatch,
                                                  n):
    """The element budget beside the call budget: jitter is a function
    of (link, whole second), so a block of `hops` links over a grid
    hashes 4 x hops x *distinct seconds* elements (two uniforms for each
    of two factors) however many instants fall in a second — 300 of the
    path hops' grid's per epoch: the 750 bursts and the 60 eval
    instants, less those the two grids share bit for bit."""
    blocks = []
    link_series = Underlay.link_series

    def counted(self, hops, times):
        before = len(hash_calls)
        out = link_series(self, hops, times)
        blocks.append((len(hops), np.unique(np.floor(times)).size,
                       len(times), sum(hash_calls[before:])))
        return out

    monkeypatch.setattr(Underlay, "link_series", counted)
    with one_epoch_simulator(n) as simulator:
        simulator.run(600.0, 300.0)
    # Backup hops on the eval grid; path hops, once, on the union of
    # the eval and burst grids (0.4 s multiples rarely land exactly on
    # 5 s ones).
    config = simulator.sim_config
    union = np.union1d(
        np.arange(600.0, 900.0, config.monitoring.burst_interval_s),
        np.arange(600.0, 900.0, config.eval_step_s))
    assert sorted((seconds, instants) for __, seconds, instants, __
                  in blocks) == [(60, 60), (300, union.size)]
    for hops, seconds, __, hashed in blocks:
        assert 0 < hashed <= 4 * hops * seconds
