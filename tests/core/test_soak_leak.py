"""Soak leak detector (issue #9): a short serve run must be flat.

Runs the service flat-out (no wall pacing) over a compressed window
under the rotating chaos schedule — crashes, warm restarts, two-phase
installs, telemetry streaming all active — and asserts the resource
profile stays bounded:

* no orphaned child processes after the drain,
* the open-fd count is flat between the first and last heartbeat,
* tracked Python objects do not drift unboundedly across repeat runs
  (the second window allocates no net objects the first didn't),
* heartbeat RSS stays within a small envelope of the first sample.

Marked ``soak`` so an iteration loop can skip it (``-m 'not soak'``);
it is deliberately fast enough to stay in the default tier-1 run.
"""

import gc
import multiprocessing

import pytest

from repro import obs
from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.core.service import (ServiceConfig, XRONService,
                                build_soak_schedule)
from repro.core.variants import xron
from repro.resilience.config import resilience
from repro.traffic.demand import DemandModel
from repro.underlay.config import UnderlayConfig
from repro.underlay.regions import default_regions
from repro.underlay.topology import build_underlay

pytestmark = pytest.mark.soak

#: One compressed soak window, simulated seconds.
WINDOW_S = 1200.0


def _build_soak_system(seed=13):
    from dataclasses import replace

    regions = default_regions()[:3]
    codes = [r.code for r in regions]
    underlay = build_underlay(regions, UnderlayConfig(horizon_s=3600.0),
                              seed=seed)
    demand = DemandModel(regions, seed=seed)
    schedule = build_soak_schedule(0.0, WINDOW_S, codes, period_s=300.0)
    return EventDrivenXRON(
        underlay, demand, variant=replace(xron(), elastic=False),
        sim_config=SimulationConfig(epoch_s=60.0, eval_step_s=60.0,
                                    seed=seed, demand_scale=0.05,
                                    initial_gateways=4),
        measure_interval_s=5.0,
        faults=schedule, resilience=resilience())


def _run_window(tmp_path, tag):
    system = _build_soak_system()
    with obs.capture() as hub:
        hub.attach_stream(tmp_path / f"{tag}.jsonl")
        service = XRONService(
            system,
            ServiceConfig(duration_s=WINDOW_S, heartbeat_s=120.0,
                          checkpoint_path=tmp_path / f"{tag}-cp.json"))
        result = service.run()
        hub.detach_stream(close=True)
    assert result.drained
    return result


def test_soak_window_leaks_nothing(tmp_path):
    baseline_children = len(multiprocessing.active_children())

    result = _run_window(tmp_path, "leak")

    # Chaos actually exercised the lifecycle seams.
    counters = result.eventsim.fault_counters
    assert counters["gateways_crashed"] >= 1
    assert counters["gateways_restarted"] >= 1
    assert result.epochs >= WINDOW_S / 60.0

    # No orphaned workers: every pool and fork child was reaped.
    assert len(multiprocessing.active_children()) == baseline_children

    # Open fds flat across the soak (heartbeats sample /proc/self/fd).
    h0, h1 = result.health_first, result.health_last
    assert h0 is not None and h1 is not None
    if h0["open_fds"] is not None:  # /proc may be absent off-Linux
        assert h1["open_fds"] == h0["open_fds"]
    assert h1["children"] == 0

    # RSS envelope: a short window must not balloon.  The acceptance
    # budget is <5%/compressed-day; this window is 1/72 of a day, so
    # 10% here is already generous slack for allocator noise.
    if h0["rss_kb"] and h1["rss_kb"]:
        assert h1["rss_kb"] <= h0["rss_kb"] * 1.10


def test_repeat_windows_do_not_accumulate_objects(tmp_path):
    """Back-to-back service windows in one process stay object-flat.

    The first window pays every lazy import and cache fill; the second
    must come out near-neutral — a leaked controller, cluster, stream
    handle or heartbeat task would show up as monotonic object growth.
    """
    _run_window(tmp_path, "warmup")
    gc.collect()
    before = len(gc.get_objects())
    _run_window(tmp_path, "second")
    gc.collect()
    after = len(gc.get_objects())
    # Generous absolute slack for interned/cached odds and ends; a
    # leaked system (clusters, NIB windows, sessions) is tens of
    # thousands of objects.
    assert after - before < 10_000
