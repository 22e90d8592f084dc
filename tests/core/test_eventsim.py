"""Tests for the event-driven full-system simulator."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.core.variants import internet_only, xron_basic
from repro.experiments.base import quiet_testbed
from repro.faults import spec as fault_spec
from repro.faults.spec import FaultSchedule
from repro.traffic.demand import DemandModel
from repro.underlay.config import UnderlayConfig
from repro.underlay.events import DegradationEvent
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import default_regions
from repro.underlay.scenarios import inject_events
from repro.underlay.topology import build_underlay


@pytest.fixture(scope="module")
def regions():
    by_code = {r.code: r for r in default_regions()}
    return [by_code[c] for c in ("HGH", "SIN", "FRA")]


def _build(regions, seed=5, quiet=False):
    if quiet:
        return quiet_testbed(seed)
    u = build_underlay(regions, UnderlayConfig(horizon_s=7200.0), seed=seed)
    return u, DemandModel(regions, seed=seed)


def _sim_config(seed=5, epoch_s=60.0, demand_scale=1.0):
    return SimulationConfig(epoch_s=epoch_s, eval_step_s=10.0, seed=seed,
                            demand_scale=demand_scale)


def test_rejects_direct_path_variants(regions):
    u, d = _build(regions)
    with pytest.raises(ValueError):
        EventDrivenXRON(u, d, variant=internet_only())


@pytest.mark.parametrize("pair", [("HGH", "SNI"), ("XXX", "HGH"),
                                  ("HGH", "HGH")],
                         ids=["typo", "unknown-src", "self-pair"])
def test_rejects_tracked_pair_outside_the_underlay(regions, pair):
    """Such a pair used to be accepted and silently reported as an empty
    `SessionRecord`: no stream ever binds to it."""
    u, d = _build(regions)
    with pytest.raises(ValueError, match=repr(pair[0])):
        EventDrivenXRON(u, d, tracked_pairs=[("HGH", "SIN"), pair])


def test_default_tracked_pairs_are_accepted(regions):
    u, d = _build(regions)
    sim = EventDrivenXRON(u, d)
    assert len(sim.sessions) == 4
    assert set(sim.sessions) <= set(u.pairs)


def test_runs_and_measures_sessions(regions):
    u, d = _build(regions)
    sim = EventDrivenXRON(u, d, sim_config=_sim_config())
    result = sim.run(3600.0, 120.0)
    assert result.control_outputs  # epochs ran
    assert result.probe_bytes > 0
    assert result.events_processed > 100
    measured = [rec for rec in result.sessions.values() if rec.times]
    assert measured
    for rec in measured:
        assert all(l > 0 for l in rec.latency_ms)
        assert all(0 <= x <= 1 for x in rec.loss_rate)
        assert all(1 <= h <= 4 for h in rec.hop_counts)


def test_quiet_underlay_never_reacts(regions):
    u, d = _build(regions, quiet=True)
    sim = EventDrivenXRON(u, d, sim_config=_sim_config())
    result = sim.run(3600.0, 90.0)
    assert result.detections == 0
    for rec in result.sessions.values():
        assert not any(rec.on_backup)


def test_injected_degradation_triggers_reaction(regions):
    u, d = _build(regions, quiet=True)
    pair = max(d.pairs, key=lambda p: d.pair_scale(*p))
    inject_events(u, pair[0], pair[1], LinkType.INTERNET,
                  [DegradationEvent(3630.0, 60.0, 5000.0, 0.3)])
    # Light demand so the session binds in the first epoch; a long epoch
    # so the *local* reaction (not a controller recompute) is what
    # handles the degradation.
    sim = EventDrivenXRON(u, d,
                          sim_config=_sim_config(epoch_s=300.0,
                                                 demand_scale=0.05),
                          tracked_pairs=[pair])
    result = sim.run(3600.0, 120.0)
    record = result.sessions[pair]
    assert result.detections >= 1
    assert any(record.on_backup)
    # During the backup period latency must stay bounded (premium path),
    # far below the injected 5 s spike.
    backup_lat = [l for l, b in zip(record.latency_ms, record.on_backup)
                  if b]
    assert backup_lat and max(backup_lat) < 1000.0


def test_xron_basic_ignores_degradation(regions):
    u, d = _build(regions, quiet=True)
    pair = max(d.pairs, key=lambda p: d.pair_scale(*p))
    inject_events(u, pair[0], pair[1], LinkType.INTERNET,
                  [DegradationEvent(3630.0, 60.0, 5000.0, 0.3)])
    sim = EventDrivenXRON(u, d, variant=xron_basic(),
                          sim_config=_sim_config(epoch_s=300.0,
                                                 demand_scale=0.05),
                          tracked_pairs=[pair])
    result = sim.run(3600.0, 120.0)
    record = result.sessions[pair]
    # Without fast reaction the session rides the degraded link...
    assert not any(record.on_backup)
    # ...unless the next control epoch routes around it; either way the
    # spike is visible in at least one sample.
    assert max(record.latency_ms) > 1000.0


def test_elastic_scaling_grows_fleet(regions):
    u, d = _build(regions)
    sim = EventDrivenXRON(u, d, sim_config=SimulationConfig(
        epoch_s=60.0, eval_step_s=10.0, seed=5, initial_gateways=1))
    result = sim.run(3600.0, 240.0)
    # The China-heavy regions need more than one gateway at this hour
    # (12:00 local): provisioning completes within the run.
    assert max(result.gateway_counts.values()) > 1


def test_deterministic(regions):
    u1, d1 = _build(regions)
    u2, d2 = _build(regions)
    r1 = EventDrivenXRON(u1, d1, sim_config=_sim_config()).run(3600.0, 60.0)
    r2 = EventDrivenXRON(u2, d2, sim_config=_sim_config()).run(3600.0, 60.0)
    for pair in r1.sessions:
        np.testing.assert_allclose(r1.sessions[pair].latency_ms,
                                   r2.sessions[pair].latency_ms)
    assert r1.events_processed == r2.events_processed


def test_controller_outage_data_plane_survives(regions):
    """With the controller down, stale tables plus local reaction keep
    the session usable through a degradation (§4.3's failure story)."""
    u, d = _build(regions, quiet=True)
    pair = max(d.pairs, key=lambda p: d.pair_scale(*p))
    inject_events(u, pair[0], pair[1], LinkType.INTERNET,
                  [DegradationEvent(3700.0, 60.0, 5000.0, 0.3)])
    sim = EventDrivenXRON(
        u, d,
        sim_config=_sim_config(epoch_s=60.0, demand_scale=0.05),
        tracked_pairs=[pair],
        faults=FaultSchedule.of(
            fault_spec.controller_outage(3650.0, 3900.0)))
    result = sim.run(3600.0, 300.0)
    assert sim.skipped_epochs >= 3
    record = result.sessions[pair]
    times = np.asarray(record.times)
    lat = np.asarray(record.latency_ms)
    window = (times >= 3705.0) & (times < 3760.0)
    # The degradation falls entirely inside the outage; reaction alone
    # must keep latency bounded.
    assert window.any()
    assert np.median(lat[window]) < 1000.0
    assert any(np.asarray(record.on_backup)[window])


def test_reading_the_result_traces_no_election():
    """Regression: `EventDrivenXRON.result` sums every cluster's
    detections, and reading a cluster's elected count used to trace its
    election — so a fleet that changed after the last probing instant
    put a `rep_election` event after the end of the run."""
    from repro import obs
    from tests.harness import START_S, event_engine

    engine = event_engine(elastic=False)
    with obs.capture() as hub:
        result = engine.run(START_S, 2.0)
        assert any(e["kind"] == "rep_election" for e in hub.events_json())
        next(iter(engine.clusters.values())).crash_gateways(1, START_S + 2.0)
        traced = hub.events_json()
        engine.result(result.events_processed)
        assert hub.events_json() == traced
    engine.close()
