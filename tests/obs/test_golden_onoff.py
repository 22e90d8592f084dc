"""Golden equivalence: full observability on vs off, byte for byte.

The acceptance bar for the observability layer is that arming ALL of it
— telemetry hub, live JSONL stream, SLO engine — leaves the simulation
output *byte-identical* to a run with everything off.  This module
holds the epoch engine's half; the event engine's is the ``telemetry``
column (and the SLO row) of ``tests/core/test_extension_matrix.py``,
over every extension subset and under an active fault schedule.
"""

import pytest

from repro import obs
from repro.core.config import SimulationConfig
from repro.core.simulator import EpochSimulator
from repro.core.variants import xron
from repro.experiments.base import quiet_testbed
from repro.obs.slo import SLOEngine, SLOTarget
from tests.harness import epoch_bytes


@pytest.fixture(autouse=True)
def clean_hub():
    obs.disable()
    obs.reset()
    yield
    hub = obs.telemetry()
    if hub.stream is not None:
        hub.detach_stream(close=True)
    obs.disable()
    obs.reset()


def _golden_epochsim(armed, tmp_path):
    obs.reset()
    if armed:
        hub = obs.enable()
        hub.attach_stream(tmp_path / "epoch.jsonl", max_bytes=64 * 1024)
        engine = SLOEngine(SLOTarget(min_samples=2), hub=hub)
    else:
        obs.disable()
        engine = None
    u, d = quiet_testbed(5)
    sim = EpochSimulator(
        u, d, xron(),
        sim_config=SimulationConfig(epoch_s=300.0, eval_step_s=10.0,
                                    seed=5),
        slo=engine)
    result = sim.run(3600.0, 900.0)
    if armed:
        engine.close()
        hub.detach_stream(close=True)
    return epoch_bytes(result)


class TestEpochSim:
    def test_byte_identical_with_slo_and_stream(self, tmp_path):
        off = _golden_epochsim(False, tmp_path / "off")
        on = _golden_epochsim(True, tmp_path / "on")
        assert off == on
