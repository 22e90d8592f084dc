"""Golden equivalence: control modes are byte-identical end to end.

`Controller(control_mode=...)` promises that "monolithic" and
"incremental" differ only in performance — same assignments, same
forwarding tables, same reaction plans, same simulated sessions, bit
for bit.  The epoch engine is run once per mode here and the canonical
output bytes compared; the event engine's half is the ``incremental``
column of ``tests/core/test_extension_matrix.py`` (every extension
subset, under a chaos schedule that kills the controller, crashes
gateways and blinds probes).
"""

import pytest

from repro import obs
from repro.core.config import SimulationConfig
from repro.core.simulator import EpochSimulator
from repro.core.variants import xron
from repro.experiments.base import quiet_testbed
from tests.harness import START_S, epoch_bytes

MODES = ("monolithic", "incremental")


@pytest.fixture(autouse=True)
def clean_hub():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _epochsim_bytes(mode):
    u, d = quiet_testbed(5)
    sim = EpochSimulator(
        u, d, xron(),
        sim_config=SimulationConfig(epoch_s=300.0, eval_step_s=10.0, seed=5,
                                    control_mode=mode))
    return epoch_bytes(sim.run(START_S, 900.0))


class TestEpochSim:
    @pytest.mark.parametrize("mode", MODES[1:])
    def test_byte_identical(self, mode):
        assert (_epochsim_bytes(mode)
                == _epochsim_bytes("monolithic"))


class TestModeNames:
    """One list of modes: the config and the controller reject the same
    names, and both errors say which ones remain."""

    def test_removed_mode_rejected_by_config_and_controller(self):
        from repro.controlplane.controller import CONTROL_MODES, Controller

        assert CONTROL_MODES == MODES
        for build in (lambda: SimulationConfig(control_mode="sharded"),
                      lambda: Controller(["HGH", "SIN"],
                                         control_mode="sharded")):
            with pytest.raises(ValueError, match="monolithic.*incremental"):
                build()

    def test_worker_count_is_not_a_setting(self):
        with pytest.raises(TypeError):
            SimulationConfig(shard_workers=2)
