"""Golden equivalence: control modes are byte-identical end to end.

`Controller(control_mode=...)` promises that "monolithic" and
"incremental" differ only in performance — same assignments, same
forwarding tables, same reaction plans, same simulated sessions, bit
for bit.  These tests run the full simulators (including under an
active chaos schedule that kills the controller, crashes gateways and
blinds probes) once per mode and compare the canonical output bytes.
"""

import json
from dataclasses import replace

import pytest

from repro import obs
from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.core.simulator import EpochSimulator
from repro.core.variants import xron
from repro.faults import (FaultSchedule, controller_outage, gateway_crash,
                          probe_blackout)
from repro.traffic.demand import DemandModel
from repro.underlay.config import UnderlayConfig
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import default_regions
from repro.underlay.scenarios import quiet_link
from repro.underlay.topology import build_underlay

MODES = ("monolithic", "incremental")


@pytest.fixture(autouse=True)
def clean_hub():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def regions():
    by_code = {r.code: r for r in default_regions()}
    return [by_code[c] for c in ("HGH", "SIN", "FRA")]


def _build(regions, seed=5):
    config = UnderlayConfig(horizon_s=7200.0)
    config.internet.base_loss_min = 1e-6
    config.internet.base_loss_max = 1e-5
    config.internet.diurnal_loss_amp = 0.0
    for tier in (config.internet, config.premium):
        tier.short_events_per_day = 0.0
        tier.long_events_per_day = 0.0
    u = build_underlay(regions, config, seed=seed)
    for (a, b) in u.pairs:
        for lt in (LinkType.INTERNET, LinkType.PREMIUM):
            quiet_link(u, a, b, lt)
    return u, DemandModel(regions, seed=seed)


_FAULTS = (controller_outage(3640.0, 3700.0),
           gateway_crash(3620.0, 40.0, region="SIN", count=2),
           probe_blackout(3610.0, 30.0, region="HGH"))


def _eventsim_bytes(regions, mode, faults):
    """One event-driven run in ``mode``; canonical bytes of its output."""
    u, d = _build(regions)
    sim = EventDrivenXRON(
        u, d,
        # Elasticity off pins the fleets so the injected gateway crash
        # has victims to take (mirrors tests/faults).
        variant=replace(xron(), elastic=False),
        sim_config=SimulationConfig(epoch_s=30.0, eval_step_s=10.0,
                                    seed=5, demand_scale=0.05,
                                    control_mode=mode),
        faults=FaultSchedule.of(*faults) if faults else None)
    result = sim.run(3600.0, 120.0)
    doc = {"events": result.events_processed,
           "probe_bytes": result.probe_bytes,
           "epochs": len(result.control_outputs),
           "gateways": dict(result.gateway_counts),
           "fault_counters": result.fault_counters,
           "sessions": {
               f"{pair[0]}->{pair[1]}": [list(rec.times),
                                         list(rec.latency_ms),
                                         list(rec.loss_rate),
                                         list(rec.on_backup)]
               for pair, rec in sorted(result.sessions.items())}}
    return json.dumps(doc, sort_keys=True).encode()


def _epochsim_bytes(regions, mode):
    u, d = _build(regions)
    sim = EpochSimulator(
        u, d, xron(),
        sim_config=SimulationConfig(epoch_s=300.0, eval_step_s=10.0, seed=5,
                                    control_mode=mode))
    result = sim.run(3600.0, 900.0)
    doc = {"latency": result.latency_ms.round(9).tolist(),
           "loss": result.loss_rate.round(9).tolist(),
           "on_backup": result.on_backup.astype(int).tolist(),
           "containers": result.containers.tolist(),
           "demand": result.demand_mbps.round(9).tolist()}
    return json.dumps(doc, sort_keys=True).encode()


class TestEventSim:
    @pytest.mark.parametrize("mode", MODES[1:])
    def test_byte_identical_without_faults(self, regions, mode):
        assert (_eventsim_bytes(regions, mode, None)
                == _eventsim_bytes(regions, "monolithic", None))

    @pytest.mark.parametrize("mode", MODES[1:])
    def test_byte_identical_under_chaos_schedule(self, regions, mode):
        """Controller outages + gateway crashes + probe blackouts: the
        incremental engine sees genuinely dirty epochs (fleets change,
        snapshots shift mid-fault) and must still match bit for bit."""
        assert (_eventsim_bytes(regions, mode, _FAULTS)
                == _eventsim_bytes(regions, "monolithic", _FAULTS))


class TestEpochSim:
    @pytest.mark.parametrize("mode", MODES[1:])
    def test_byte_identical(self, regions, mode):
        assert (_epochsim_bytes(regions, mode)
                == _epochsim_bytes(regions, "monolithic"))


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
