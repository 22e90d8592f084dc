"""Tests for the always-on service mode (`repro.core.service`)."""

import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import replace

import pytest

from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.core.service import (ServiceConfig, ServiceError, XRONService,
                                build_soak_schedule)
from repro.core.variants import xron
from repro.experiments.base import quiet_testbed
from repro.faults import spec as fault_spec
from repro.faults.spec import FaultSchedule
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.config import resilience

#: The testbed's region codes, in underlay order.
CODES = ("HGH", "SIN", "FRA")


def _build_system(seed=5, faults=None, initial_gateways=4):
    underlay, demand = quiet_testbed(seed)
    return EventDrivenXRON(
        underlay, demand, variant=replace(xron(), elastic=False),
        sim_config=SimulationConfig(epoch_s=60.0, eval_step_s=60.0,
                                    seed=seed, demand_scale=0.05,
                                    initial_gateways=initial_gateways),
        measure_interval_s=5.0, faults=faults, resilience=resilience())


# --------------------------------------------------------------- the driver
def test_clock_completes_at_window_end_without_draining():
    """The driver stops at the window end: an event past it stays
    queued, unfired, and the clock is left exactly at the end."""
    system = _build_system()
    service = XRONService(system, ServiceConfig(duration_s=100.0))
    fired = []
    declare = system.schedule

    def schedule(sim, start_s):
        sim.schedule_at(50.0, lambda: fired.append(50.0))
        sim.schedule_at(150.0, lambda: fired.append(150.0))
        return declare(sim, start_s)

    system.schedule = schedule
    result = service.run()
    assert result.stop_reason == "completed"
    assert fired == [50.0]
    assert result.sim_t1 == 100.0


# -------------------------------------------------------------- the service
def test_service_runs_a_window_and_drains(tmp_path):
    system = _build_system()
    config = ServiceConfig(duration_s=300.0, heartbeat_s=60.0,
                           checkpoint_path=tmp_path / "cp.json")
    service = XRONService(system, config)
    result = service.run()
    assert result.stop_reason == "completed"
    assert result.drained
    assert result.sim_t1 == 300.0
    # Epochs at t=0, 60, ..., 300 inclusive.
    assert result.epochs == 6
    assert result.heartbeats == 5
    assert result.eventsim.probe_bytes > 0
    assert any(r.times for r in result.eventsim.sessions.values())
    # The drain persisted a resumable envelope.
    envelope = XRONService.load_envelope(tmp_path / "cp.json")
    assert envelope["sim_t"] == 300.0
    assert envelope["epoch_seq"] == 6
    # Teardown left no stranded fork workers.
    assert multiprocessing.active_children() == []


def test_service_is_deterministic():
    def run_once():
        system = _build_system()
        service = XRONService(
            system, ServiceConfig(duration_s=300.0, heartbeat_s=150.0))
        result = service.run()
        return result

    a, b = run_once(), run_once()
    assert a.events_processed == b.events_processed
    assert a.epochs == b.epochs
    for pair in a.eventsim.sessions:
        assert (a.eventsim.sessions[pair].latency_ms
                == b.eventsim.sessions[pair].latency_ms)


def _crash_and_blackout():
    return FaultSchedule.of(
        fault_spec.gateway_crash(100.0, 60.0, CODES[0]),
        fault_spec.probe_blackout(200.0, 60.0, region=CODES[1]))


def _back_to_back_crashes():
    """Two crash windows on one region inside one epoch, the second
    starting the instant the first one's restart is due: the restart is
    queued when the first crash fires, so it ties with — and by
    scheduling order runs after — the second crash window."""
    return FaultSchedule.of(
        fault_spec.gateway_crash(125.0, 20.0, CODES[0]),
        fault_spec.gateway_crash(145.0, 20.0, CODES[0]))


def test_service_matches_batch_engine():
    """The service reproduces the batch engine's run exactly.

    Both run the one schedule `EventDrivenXRON.schedule` declares on a
    `Simulator`, so the session measurements, the fault accounting and
    the event count (heartbeats aside) must be identical to
    `EventDrivenXRON.run` over the same window — equal-time ties
    included, where batch order is the reference.
    """
    for schedule_of, gateways in ((_crash_and_blackout, 4),
                                  (_back_to_back_crashes, 2)):
        schedule = schedule_of()
        batch = _build_system(faults=schedule,
                              initial_gateways=gateways)
        batch_result = batch.run(0.0, 400.0)
        batch.close()

        served = _build_system(faults=schedule,
                               initial_gateways=gateways)
        service = XRONService(served, ServiceConfig(duration_s=400.0))
        service_result = service.run()
        live_result = service_result.eventsim

        assert len(live_result.control_outputs) == len(
            batch_result.control_outputs)
        assert live_result.fault_counters == batch_result.fault_counters
        assert live_result.probe_bytes == batch_result.probe_bytes
        for pair, record in batch_result.sessions.items():
            live = live_result.sessions[pair]
            assert live.times == record.times
            assert live.latency_ms == record.latency_ms
            assert live.on_backup == record.on_backup
        # The first control epoch is a direct call in both, so only the
        # service's heartbeat events may differ.
        assert (live_result.events_processed - service_result.heartbeats
                == batch_result.events_processed)


def test_service_stop_request_drains_immediately(tmp_path):
    """A callback's stop request ends the run at its own instant."""
    system = _build_system()
    config = ServiceConfig(duration_s=600.0, heartbeat_s=60.0,
                           checkpoint_path=tmp_path / "cp.json")
    service = XRONService(system, config)
    declare = system.schedule

    def schedule(sim, start_s):
        sim.schedule_at(150.0, lambda: service.request_stop("test-stop"))
        return declare(sim, start_s)

    system.schedule = schedule
    result = service.run()
    assert result.stop_reason == "test-stop"
    assert result.drained
    assert result.sim_t1 == 150.0
    # The drain checkpoint reflects the stop time, not the window end.
    envelope = XRONService.load_envelope(tmp_path / "cp.json")
    assert envelope["sim_t"] == result.sim_t1


def test_stop_requests_before_the_run_drain_it_at_its_start(tmp_path):
    """The first of several requests names the stop; the window never
    starts, and the drain checkpoints its start instant."""
    service = XRONService(_build_system(), ServiceConfig(
        duration_s=600.0, checkpoint_path=tmp_path / "cp.json"))
    service.request_stop("first")
    service.request_stop("second")
    result = service.run()
    assert (result.stop_reason, result.sim_t1, result.epochs) == (
        "first", 0.0, 0)
    assert XRONService.load_envelope(tmp_path / "cp.json")["sim_t"] == 0.0


def test_sigterm_ends_a_paced_wait_and_restores_the_handler(tmp_path):
    """A real SIGTERM during a long paced wait drains the run at once,
    through one final checkpoint at the instant it stopped, and the
    handler that was installed before the run is back afterwards."""
    # 50 wall-s per sim-s: the wait for the first probing instant after
    # the start-up events lasts several seconds.
    service = XRONService(_build_system(), ServiceConfig(
        duration_s=600.0, compress=0.02,
        checkpoint_path=tmp_path / "cp.json"))

    def sentinel(signum, frame):
        raise AssertionError("the service's handler was not installed")

    before = signal.signal(signal.SIGTERM, sentinel)
    timer = threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGTERM))
    try:
        timer.start()
        wall0 = time.monotonic()
        result = service.run()
        wall_s = time.monotonic() - wall0
        assert signal.getsignal(signal.SIGTERM) is sentinel
    finally:
        timer.cancel()
        signal.signal(signal.SIGTERM, before)
    assert result.stop_reason == "SIGTERM"
    assert result.sim_t1 < 1.0
    assert wall_s < 4.0
    envelope = XRONService.load_envelope(tmp_path / "cp.json")
    assert envelope["sim_t"] == result.sim_t1


def test_a_run_off_the_main_thread_installs_no_handlers(tmp_path):
    service = XRONService(_build_system(), ServiceConfig(duration_s=120.0))
    before = signal.getsignal(signal.SIGTERM)
    installed, results = [], []

    def run():
        results.append(service.run())
        installed.append(signal.getsignal(signal.SIGTERM))

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60.0)
    assert not worker.is_alive()
    assert results[0].stop_reason == "completed"
    assert results[0].sim_t1 == 120.0
    assert installed == [before]


def test_component_error_drains_and_raises():
    system = _build_system()
    service = XRONService(system, ServiceConfig(duration_s=300.0))

    def boom():
        raise RuntimeError("injected component failure")

    system._flush_passive = lambda sim: boom()
    with pytest.raises(ServiceError, match="injected component failure"):
        service.run()
    # The drain still ran: no stranded children, controller closed.
    assert multiprocessing.active_children() == []


# ------------------------------------------------------- checkpoint/restore
def test_restore_mid_schedule_does_not_replay_fired_faults(tmp_path):
    """A resumed soak skips crash windows that already fired (issue #9).

    Two crash windows; the first leg runs past the first, drains, and
    the second leg restores from the envelope and finishes the window.
    Total crashes across both legs must equal the scheduled count —
    under the old absolute-offset assumption the restored run would
    re-fire the first window and crash twice the gateways.
    """
    schedule = FaultSchedule.of(
        fault_spec.gateway_crash(100.0, 60.0, CODES[0]),
        fault_spec.gateway_crash(400.0, 60.0, CODES[1]))
    path = tmp_path / "cp.json"

    leg1_system = _build_system(faults=schedule)
    leg1 = XRONService(leg1_system,
                       ServiceConfig(duration_s=250.0, checkpoint_path=path))
    leg1_result = leg1.run()
    assert leg1_result.eventsim.fault_counters["gateways_crashed"] == 1
    envelope = XRONService.load_envelope(path)
    inner = json.loads(envelope["checkpoint"])
    assert inner["fault_state"]["fired"] == [0]

    leg2_system = _build_system(faults=schedule)
    leg2 = XRONService(leg2_system,
                       ServiceConfig(duration_s=600.0, checkpoint_path=path))
    t = leg2.restore_from(envelope)
    assert t == pytest.approx(250.0)
    leg2.config.duration_s = 600.0 - t
    leg2_result = leg2.run()

    # Counters are imported with the checkpoint, so the leg-2 totals are
    # cumulative: exactly one crash per scheduled window, never two.
    counters = leg2_result.eventsim.fault_counters
    assert counters["gateways_crashed"] == 2
    assert counters["gateways_restarted"] == 2
    assert sorted(leg2_system.faults.export_state()["fired"]) == [0, 1]


def test_restore_rejects_mismatched_schedule(tmp_path):
    schedule = FaultSchedule.of(
        fault_spec.gateway_crash(100.0, 60.0, CODES[0]))
    path = tmp_path / "cp.json"
    leg1 = XRONService(_build_system(faults=schedule),
                       ServiceConfig(duration_s=200.0, checkpoint_path=path))
    leg1.run()
    envelope = XRONService.load_envelope(path)

    other = FaultSchedule.of(
        fault_spec.gateway_crash(500.0, 60.0, CODES[0]))
    leg2 = XRONService(_build_system(faults=other),
                       ServiceConfig(duration_s=600.0))
    with pytest.raises(ValueError, match="schedule"):
        leg2.restore_from(envelope)


def test_restore_resumes_controller_state(tmp_path):
    """The restored controller predicts from the checkpointed SIB."""
    path = tmp_path / "cp.json"
    leg1_system = _build_system()
    leg1 = XRONService(leg1_system,
                       ServiceConfig(duration_s=300.0, checkpoint_path=path))
    leg1.run()
    sib_state = leg1_system.controller.sib.export_state()

    leg2_system = _build_system()
    leg2 = XRONService(leg2_system,
                       ServiceConfig(duration_s=600.0, checkpoint_path=path))
    envelope = XRONService.load_envelope(path)
    t = leg2.restore_from(envelope)
    assert t == pytest.approx(300.0)
    # The engine holds the very artifact it was restored from.
    assert leg2_system.checkpoint_json == envelope["checkpoint"]
    # SIB demand history survived the round trip (the expensive state).
    assert leg2_system.controller.sib.export_state() == sib_state
    assert leg2_system.epoch_seq == leg1_system.epoch_seq
    # The last committed tables are live before the first epoch runs.
    for code, cluster in leg2_system.clusters.items():
        assert (cluster.current_entries()
                == leg1_system.clusters[code].current_entries())


def test_envelope_sim_t_is_its_checkpoints_instant(tmp_path, monkeypatch):
    """Every envelope records the instant of the checkpoint it carries,
    without parsing the checkpoint to find it: the drain's, and each of
    a resumed leg's, whose first is at the instant it resumed from."""
    written = []
    write = XRONService._write_envelope

    def recording(self, now):
        path = write(self, now)
        written.append(XRONService.load_envelope(path))
        return path

    monkeypatch.setattr(XRONService, "_write_envelope", recording)
    leg1 = XRONService(_build_system(), ServiceConfig(
        duration_s=300.0, checkpoint_path=tmp_path / "leg1.json"))
    leg1.run()
    drained = written[-1]
    leg2 = XRONService(_build_system(), ServiceConfig(
        duration_s=600.0, checkpoint_path=tmp_path / "leg2.json"))
    leg2.restore_from(XRONService.load_envelope(tmp_path / "leg1.json"))
    del written[:]
    leg2.run()
    assert written[0]["sim_t"] == drained["sim_t"] == 300.0
    assert written[-1]["sim_t"] == 900.0
    for envelope in [drained] + written:
        assert envelope["sim_t"] == Checkpoint.loads(
            envelope["checkpoint"]).t


def test_envelope_round_trip_rejects_foreign_files(tmp_path):
    bogus = tmp_path / "not-an-envelope.json"
    bogus.write_text(json.dumps({"record": "something-else"}))
    with pytest.raises(ValueError, match="not a service checkpoint"):
        XRONService.load_envelope(bogus)


# ------------------------------------------------------------ soak schedule
def test_build_soak_schedule_is_deterministic_and_sorted():
    codes = ["HGH", "SIN", "FRA"]
    a = build_soak_schedule(0.0, 3600.0, codes)
    b = build_soak_schedule(0.0, 3600.0, codes)
    assert a.to_json() == b.to_json()
    assert len(a.specs) == 6  # lead 120, period 600, tail margin 180
    starts = [s.start_s for s in a.specs]
    assert starts == sorted(starts)
    kinds = {s.kind for s in a.specs}
    assert len(kinds) == 6  # the rotation walks the taxonomy


def test_build_soak_schedule_requires_regions():
    with pytest.raises(ValueError):
        build_soak_schedule(0.0, 3600.0, [])


def test_soak_rotation_covers_the_entire_fault_taxonomy():
    """The rotation is derived from `FaultKind`: every kind has a
    builder, and a window long enough for one full rotation fires every
    kind exactly once, in enum order."""
    from repro.core.service import _SOAK_BUILDERS

    assert set(_SOAK_BUILDERS) == set(fault_spec.FaultKind)
    codes = ["HGH", "SIN", "FRA"]
    n = len(fault_spec.FaultKind)
    schedule = build_soak_schedule(0.0, 120.0 + (n - 1) * 600.0 + 180.0,
                                   codes)
    assert [s.kind for s in schedule.specs] == list(fault_spec.FaultKind)


def test_soak_partition_slot_severs_a_multi_region_set():
    codes = ["HGH", "SIN", "FRA"]
    schedule = build_soak_schedule(0.0, 2 * 10 * 600.0, codes)
    partitions = [s for s in schedule.specs
                  if s.kind is fault_spec.FaultKind.CONTROL_PARTITION]
    assert partitions
    for spec in partitions:
        assert len(spec.regions) == 2
        assert set(spec.regions) <= set(codes)


def test_soak_rotation_first_slots_are_stable():
    """Short chaos windows (CI's 30-minute soak) must keep firing the
    same leading kinds the pre-taxonomy rotation fired."""
    schedule = build_soak_schedule(0.0, 1800.0, ["HGH", "SIN"])
    assert [s.kind for s in schedule.specs] == [
        fault_spec.FaultKind.GATEWAY_CRASH,
        fault_spec.FaultKind.PROBE_BLACKOUT,
        fault_spec.FaultKind.REPORT_DROP,
    ]
