"""Golden equivalence: full observability on vs off, byte for byte.

The acceptance bar for the observability layer is that arming ALL of it
— telemetry hub, live JSONL stream, SLO engine — leaves the simulation
output *byte-identical* to a run with everything off.  This module
holds the epoch engine's half (its SLO accounting is a post-hoc replay
over the result, pinned here to what the deleted live feed produced);
the event engine's
is the ``telemetry`` column (and the SLO row) of
``tests/core/test_extension_matrix.py``, over every extension subset
and under an active fault schedule.
"""

import pytest

from repro import obs
from repro.core.config import SimulationConfig
from repro.core.simulator import EpochSimulator
from repro.core.variants import xron
from repro.experiments.base import quiet_testbed
from repro.obs import slo
from repro.obs.slo import SLOEngine
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


@pytest.fixture(autouse=True)
def two_sample_window(monkeypatch):
    """The feeds below were recorded with windows armed by two samples."""
    monkeypatch.setattr(slo, "MIN_SAMPLES", 2)


def _threshold(latency_ms):
    """The latency / loss threshold rule the feeds were recorded under:
    a sample over `latency_ms` or over 5 % loss is bad."""
    return lambda lat, loss: lat > latency_ms or loss > 0.05


#: What the live `EpochSimulator(slo=)` feed produced on this run at
#: the commit that deleted it (recorded there, before the deletion):
#: per stream (samples, bad samples, breaches) under two thresholds.
_LIVE_FEED = {
    "default": (400.0, {
        "FRA->HGH": (90, 0, 0), "FRA->SIN": (90, 0, 0),
        "HGH->FRA": (90, 0, 0), "HGH->SIN": (90, 0, 0),
        "SIN->FRA": (90, 0, 0), "SIN->HGH": (90, 0, 0)}),
    "tight": (110.0, {
        "FRA->HGH": (90, 0, 0), "FRA->SIN": (90, 4, 4),
        "HGH->FRA": (90, 52, 6), "HGH->SIN": (90, 0, 0),
        "SIN->FRA": (90, 0, 0), "SIN->HGH": (90, 0, 0)}),
}


def _replay(result, engine):
    """The grid engine's SLO accounting (docs/architecture.md, "Two
    execution engines"): a closed loop has nothing to observe between
    epochs, so the engine is fed the recorded series afterwards."""
    for i, (src, dst) in enumerate(result.pairs):
        for t, lat, loss in zip(result.times, result.latency_ms[i],
                                result.loss_rate[i]):
            engine.observe(f"{src}->{dst}", float(t), float(lat),
                           float(loss))
    engine.close()
    return {name: (ledger.samples, ledger.bad_samples, ledger.breaches)
            for name, ledger in engine.streams.items()}


def _golden_epochsim(armed, tmp_path, latency_ms=400.0):
    """(serialized result, per-stream SLO ledger or None)."""
    obs.reset()
    if armed:
        hub = obs.enable()
        hub.attach_stream(tmp_path / "epoch.jsonl", max_bytes=64 * 1024)
    else:
        obs.disable()
    u, d = quiet_testbed(5)
    sim = EpochSimulator(
        u, d, xron(),
        sim_config=SimulationConfig(epoch_s=300.0, eval_step_s=10.0,
                                    seed=5))
    result = sim.run(3600.0, 900.0)
    ledger = None
    if armed:
        # Breach events land on the still-attached stream, as the live
        # feed's did.
        ledger = _replay(result, SLOEngine(_threshold(latency_ms)))
        hub.detach_stream(close=True)
    return epoch_bytes(result), ledger


class TestEpochSim:
    def test_byte_identical_with_slo_and_stream(self, tmp_path):
        off, __ = _golden_epochsim(False, tmp_path / "off")
        on, __ = _golden_epochsim(True, tmp_path / "on")
        assert off == on

    @pytest.mark.parametrize("target", list(_LIVE_FEED),
                             ids=["default", "tight"])
    def test_post_hoc_slo_replay_equals_live_feed(self, target, tmp_path):
        latency_ms, feed = _LIVE_FEED[target]
        __, ledger = _golden_epochsim(True, tmp_path, latency_ms)
        assert ledger == feed

    def test_slo_kwarg_is_gone(self):
        u, d = quiet_testbed(5)
        with pytest.raises(TypeError):
            EpochSimulator(u, d, xron(), slo=None)
