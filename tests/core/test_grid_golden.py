"""The grid engine's outputs, bit for bit, against digests recorded
before its per-pair and per-link loops were batched (see
``tests/core/grid_golden.py``)."""

import pytest

from tests.core import grid_golden as golden

FIXTURE = golden.load_fixture()


def test_fixture_names_exactly_the_replayed_configurations():
    names = {f"demand/{m}/{g}/x{s:g}" for m, g, s in golden.demand_keys()}
    names |= {f"sim/{name}" for name in golden.SIM_RUNS}
    assert set(FIXTURE) == names


@pytest.mark.parametrize("model, group, scale", golden.demand_keys(),
                         ids=lambda v: str(v))
def test_demand_matrices_match_the_pre_batching_tree(model, group, scale):
    assert (golden.demand_digest(model, group, scale)
            == FIXTURE[f"demand/{model}/{group}/x{scale:g}"])


@pytest.mark.parametrize("name", sorted(golden.SIM_RUNS))
def test_simulator_runs_match_the_pre_batching_tree(name):
    assert golden.simulation_digest(name) == FIXTURE[f"sim/{name}"]


def test_reacting_runs_actually_ride_backup_paths():
    """The digests above only pin the reaction path if it fires."""
    assert golden.simulation_doc("small-xron")["on_backup_samples"] > 0
    assert golden.simulation_doc("small-xron-basic")["on_backup_samples"] == 0
