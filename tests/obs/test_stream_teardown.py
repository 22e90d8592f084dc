"""Telemetry stream teardown tests (issue #9).

A soak run's stream must be complete on EVERY exit path: an exception
mid-run, a drained service shutdown, a context-managed block.  Each
part file must end with a complete, parseable JSON line — the readers'
``allow_partial_tail`` exists for process *crashes*, not for orderly
exits that simply forgot to flush.
"""

import json

import pytest

from repro import obs
from repro.obs.export import read_many
from repro.obs.stream import TelemetryStream


def _all_lines_parse(paths):
    records = []
    for path in paths:
        text = path.read_text()
        assert text.endswith("\n"), f"{path} ends mid-line"
        for line in text.splitlines():
            records.append(json.loads(line))  # raises on a torn line
    return records


def _build_tiny_system(seed=7):
    from dataclasses import replace

    from repro.core.config import SimulationConfig
    from repro.core.eventsim import EventDrivenXRON
    from repro.core.variants import xron
    from repro.traffic.demand import DemandModel
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.regions import default_regions
    from repro.underlay.topology import build_underlay

    regions = default_regions()[:3]
    underlay = build_underlay(regions, UnderlayConfig(horizon_s=3600.0),
                              seed=seed)
    demand = DemandModel(regions, seed=seed)
    return EventDrivenXRON(
        underlay, demand, variant=replace(xron(), elastic=False),
        sim_config=SimulationConfig(epoch_s=60.0, eval_step_s=60.0,
                                    seed=seed, demand_scale=0.05))


def test_exception_mid_run_still_flushes_the_stream(tmp_path):
    """An exception inside `EventDrivenXRON.run` must not strand the
    stream without its final metric deltas (the engine's finally-flush).
    """
    system = _build_tiny_system()
    with obs.capture() as hub:
        stream = hub.attach_stream(tmp_path / "crash.jsonl")
        calls = []
        original = system._measure

        def failing_measure(sim):
            calls.append(sim.now)
            if len(calls) >= 30:
                raise RuntimeError("mid-run failure")
            original(sim)

        system._measure = failing_measure
        with pytest.raises(RuntimeError, match="mid-run failure"):
            system.run(0.0, 600.0)
        system.close()
        # The finally-flush pushed the deltas accumulated since the last
        # epoch boundary — before the stream was even detached.
        assert stream.metrics_flushes > 0
        flushed_at = stream.metrics_flushes
        hub.detach_stream(close=True)
    assert stream.closed
    records = _all_lines_parse(stream.paths)
    metric_records = [r for r in records if r.get("record") == "metrics"]
    assert len(metric_records) >= flushed_at
    # The stream parses as a valid telemetry set despite the exception.
    doc = read_many([str(p) for p in stream.paths])
    assert doc.events


def test_service_drain_flushes_shutdown_record(tmp_path):
    """A drained service leaves a complete stream ending in telemetry
    that records the shutdown itself."""
    from repro.core.service import ServiceConfig, XRONService

    system = _build_tiny_system()
    with obs.capture() as hub:
        stream = hub.attach_stream(tmp_path / "soak.jsonl")
        service = XRONService(
            system, ServiceConfig(duration_s=300.0, heartbeat_s=60.0))
        result = service.run()
        assert result.drained
        hub.detach_stream(close=True)
    records = _all_lines_parse(stream.paths)
    kinds = [r.get("kind") for r in records if r.get("record") == "event"]
    assert "service_heartbeat" in kinds
    assert "service_shutdown" in kinds
    # Nothing trails the shutdown event except its own metric deltas.
    last_event = max(i for i, r in enumerate(records)
                     if r.get("record") == "event")
    assert records[last_event]["kind"] == "service_shutdown"


def test_close_is_idempotent(tmp_path):
    stream = TelemetryStream(tmp_path / "twice.jsonl")
    stream.close()
    stream.close()  # second close is a no-op
    assert stream.closed
