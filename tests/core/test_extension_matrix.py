"""The event engine's equivalences, over every extension subset.

Two transforms must leave a run's canonical output untouched: arming
the telemetry hub plus a live stream, and serving the window through
`XRONService` instead of `EventDrivenXRON.run`.  Each is checked
against the untransformed run for every cumulative subset of the five
extensions — none, faults, + resilience, + membership, + regional
control, + SLO — under a schedule that exercises all of them.  The hook
protocol itself is pinned below: list order is call order, and an
extension that changes nothing is byte-invisible.
"""

import asyncio
from dataclasses import replace
from functools import lru_cache

import pytest

from repro import obs
from repro.controlplane import membership, regional_control
from repro.core.config import SimulationConfig
from repro.core.eventsim import HOOKS, EventDrivenXRON
from repro.core.service import ServiceConfig, XRONService
from repro.experiments.base import quiet_testbed
from repro.faults import (FaultSchedule, control_partition,
                          controller_outage, gateway_crash, install_delay,
                          install_partial, membership_churn, probe_blackout)
from repro.obs.export import read_many
from repro.obs.slo import SLOEngine, SLOTarget
from repro.resilience import resilience
from repro.traffic.cohorts import CohortWorkload
from tests.harness import START_S, canonical_bytes, event_engine

DURATION_S = 240.0


def _chaos() -> FaultSchedule:
    """Every fault kind an extension answers, inside eight epochs: a
    crash, a blackout, an outage (restart at 3720 under a truncated
    install), a partition with a delayed regional push, healed at 3810
    under churn."""
    return FaultSchedule.of(
        probe_blackout(3610.0, 30.0, region="HGH"),
        gateway_crash(3620.0, 40.0, region="SIN", count=2),
        controller_outage(3640.0, 3700.0),
        install_partial(3715.0, 20.0, 0.5, region="FRA"),
        control_partition(3741.0, 45.0, ("HGH", "SIN")),
        install_delay(3775.0, 10.0, 5.0, region="SIN"),
        membership_churn(3800.0, 30.0, region="FRA"))


#: Cumulative subsets, in the order the subsystems arrived.
SUBSETS = ("none", "faults", "resilience", "membership", "regional", "slo")


def _kwargs(subset: str, hub=None):
    """Constructor kwargs arming everything up to and including `subset`."""
    armed = SUBSETS[:SUBSETS.index(subset) + 1]
    kwargs = {}
    if "faults" in armed:
        kwargs["faults"] = _chaos()
    if "resilience" in armed:
        kwargs["resilience"] = resilience()
    if "membership" in armed:
        kwargs["membership"] = membership()
    if "regional" in armed:
        kwargs["regional"] = regional_control()
    if "slo" in armed:
        kwargs["slo"] = SLOEngine(SLOTarget(min_samples=2), hub=hub)
    return kwargs


def _engine(subset: str, hub=None):
    return event_engine(elastic=False,
                        sib_params={"min_history": 4, "refit_every": 2},
                        **_kwargs(subset, hub))


def _finish(engine, result) -> bytes:
    engine.close()
    for ext in engine.extensions:
        if isinstance(ext, SLOEngine):
            ext.close()
    return canonical_bytes(result)


@lru_cache(maxsize=None)
def _reference(subset: str) -> bytes:
    engine = _engine(subset)
    return _finish(engine, engine.run(START_S, DURATION_S))


def _telemetry(subset: str, tmp_path) -> bytes:
    with obs.capture() as hub:
        hub.attach_stream(tmp_path / "run.jsonl", max_bytes=64 * 1024)
        engine = _engine(subset, hub)
        result = engine.run(START_S, DURATION_S)
        hub.detach_stream(close=True)
        # The armed run really streamed: trace events and metric deltas.
        streamed = read_many(sorted(tmp_path.glob("run.*.jsonl")))
        assert streamed.metrics, "stream carries no metric deltas"
        expected = {"probe_round"} if subset == "none" else {
            "probe_round", "fault_controller_outage", "fault_gateway_crash"}
        assert expected <= set(streamed.kinds())
        return _finish(engine, result)


def _served(subset: str, tmp_path) -> bytes:
    engine = _engine(subset)
    service = XRONService(
        engine, ServiceConfig(duration_s=DURATION_S, heartbeat_s=100.0),
        start_s=START_S)
    served = asyncio.run(service.run_async())
    result = served.eventsim
    assert served.heartbeats == 2
    # Service-only: the heartbeat events and the drain's checkpoint.
    result = replace(result, events_processed=(result.events_processed
                                               - served.heartbeats))
    if result.resilience_counters is not None:
        counters = dict(result.resilience_counters)
        counters["checkpoints_taken"] -= 1
        result = replace(result, resilience_counters=counters)
    return _finish(engine, result)


@pytest.fixture(autouse=True)
def clean_hub():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.mark.parametrize("transform", [_telemetry, _served],
                         ids=lambda fn: fn.__name__.lstrip("_"))
@pytest.mark.parametrize("subset", SUBSETS)
def test_transform_is_byte_invisible(subset, transform, tmp_path):
    assert transform(subset, tmp_path) == _reference(subset)


def test_slo_engine_only_observes():
    assert _reference("slo") == _reference("regional")


def test_the_schedule_exercises_every_extension():
    """The matrix compares runs in which each extension really acted."""
    engine = _engine("slo")
    result = engine.run(START_S, DURATION_S)
    assert result.fault_counters["gateways_crashed"] == 2
    assert result.fault_counters["epochs_skipped"] == 2
    assert result.fault_counters["installs_truncated"] >= 1
    assert result.fault_counters["installs_delayed"] >= 1
    assert result.fault_counters["refreshes_churned"] > 0
    assert result.resilience_counters["restores_warm"] == 1
    assert result.resilience_counters["installs_rejected"] >= 1
    assert result.membership_counters["regions_demoted"] > 0
    assert result.partition_counters["partitions_healed"] == 1
    assert result.partition_counters["regional_installs_committed"] >= 1
    assert engine.extensions[-1].streams  # the SLO ledger saw samples
    _finish(engine, result)


@pytest.mark.parametrize("elastic", [False, True],
                         ids=["pinned-fleet", "elastic"])
def test_a_region_holds_one_table_under_full_chaos(elastic):
    """On the most hostile schedule the suite has — crashes and
    restarts, a truncated install, a partition with its own regional
    installs, a delayed push, plus (elastic) the fleet following the
    pools — every boundary finds each cluster's gateways forwarding
    from the cluster's one `ForwardingTable` object."""
    checked = []

    class OneTablePerRegion:
        def epoch_end(self, sim, unreachable):
            for cluster in sim_engine.clusters.values():
                assert all(gateway.table is cluster.table
                           for gateway in cluster.gateways.values())
            checked.append(sim.now)

        def epoch_skipped(self, sim, cause, unreachable):
            self.epoch_end(sim, unreachable)

    sim_engine = event_engine(
        elastic=elastic, sib_params={"min_history": 4, "refit_every": 2},
        **_kwargs("slo"))
    sim_engine.extensions.append(OneTablePerRegion())
    result = sim_engine.run(START_S, DURATION_S)
    assert len(checked) == 9            # boot + eight boundaries
    # An elastic fleet has shrunk to one gateway per region before the
    # crash fires (a crash spares the last one): its churn is scaling.
    assert result.fault_counters["gateways_restarted"] == (0 if elastic
                                                           else 2)
    assert result.partition_counters["regional_installs_committed"] >= 1
    _finish(sim_engine, result)


# ------------------------------------------------------------ the protocol
#: Every hook an extension can implement without changing the run,
#: with what such an implementation returns.
PASS_THROUGH = {
    "schedule": lambda sim, start_s: None,
    "unreachable": lambda now: frozenset(),
    "reports_lost": lambda now: False,
    "reports_delivered": lambda cluster, reports, now: None,
    "epoch_start": lambda sim, unreachable: None,
    "epoch_gate": lambda now: None,
    "pre_solve": lambda sim: None,
    "clamp_ready": lambda ready, now: ready,
    "truncate_install": lambda code, cluster, entries, plans, now: (entries,
                                                                    plans),
    "install_delay": lambda code, now: 0.0,
    "rebind": lambda best, now: best,
    "epoch_end": lambda sim, unreachable: None,
    "checkpoint": lambda now: None,
    "sample": lambda pair, now, latency_ms, loss_rate, blackholed: None,
    "counters": lambda: {},
}


class Recorder:
    """Implements every pass-through hook; logs (hook, tag) per call."""

    def __init__(self, log, tag):
        for hook, behave in PASS_THROUGH.items():
            setattr(self, hook, self._recording(hook, behave, log, tag))

    @staticmethod
    def _recording(hook, behave, log, tag):
        def call(*args):
            log.append((hook, tag))
            return behave(*args)
        return call


def test_recorder_names_only_real_hooks():
    assert set(PASS_THROUGH) <= set(HOOKS)


def test_hooks_fire_in_phase_order_and_list_order():
    log = []
    engine = event_engine()
    engine.extensions += [Recorder(log, "a"), object(), Recorder(log, "b")]
    result = engine.run(START_S, 45.0)
    # An extension that changes nothing — or implements no hook at all —
    # is byte-invisible.
    plain = event_engine()
    assert canonical_bytes(result) == canonical_bytes(
        plain.run(START_S, 45.0))
    # List order is call order: every firing reaches "a", then "b".
    assert log[0::2] == [(hook, "a") for hook, __ in log[0::2]]
    assert log[1::2] == [(hook, "b") for hook, __ in log[0::2]]
    calls = [hook for hook, __ in log[0::2]]
    regions = len(engine.clusters)
    probe_round = (["unreachable", "reports_lost"]
                   + ["reports_delivered"] * regions)
    install = ["truncate_install", "install_delay"] * regions
    first_epoch = (["schedule", "unreachable", "epoch_start", "epoch_gate",
                    "pre_solve"] + probe_round  # empty NIB: probe first
                   + ["clamp_ready"] + install
                   + ["rebind", "epoch_end", "checkpoint"])
    assert calls[:len(first_epoch)] == first_epoch
    # The second epoch (t = START_S + 30) needs no bootstrap round.
    second = ["unreachable", "epoch_start", "epoch_gate", "pre_solve",
              "clamp_ready"] + install + ["rebind", "epoch_end", "checkpoint"]
    at = max(i for i, hook in enumerate(calls) if hook == "epoch_start") - 1
    assert calls[at:at + len(second)] == second
    assert calls[-1] == "counters"
    assert calls.count("sample") == 45 * len(engine.sessions)


# ------------------------------------------------- one SimulationConfig
def test_event_engine_reads_the_whole_simulation_config():
    """`stream_cohorts` and `nib_window` (with it, robust planning)
    mean in the event engine what they mean in `EpochSimulator` — and
    survive a checkpoint / warm restart."""
    underlay, demand = quiet_testbed(5)
    engine = EventDrivenXRON(
        underlay, demand,
        sim_config=SimulationConfig(
            epoch_s=30.0, eval_step_s=10.0, seed=5, demand_scale=0.05,
            stream_cohorts=True, nib_window=4),
        faults=FaultSchedule.of(controller_outage(3640.0, 3700.0)),
        resilience=resilience())
    boot = engine.controller
    assert isinstance(boot._workload, CohortWorkload)
    assert boot.nib.window == 4
    result = engine.run(START_S, 150.0)
    assert result.resilience_counters["restores_warm"] == 1
    restarted = engine.controller
    assert restarted is not boot
    assert isinstance(restarted._workload, CohortWorkload)
    assert restarted.nib.window == 4
    # Cohort ids kept counting across the restart (the checkpointed
    # workload state), and every epoch placed cohorts, not chunks.
    ids = [s.stream_id for o in result.control_outputs for s in o.streams]
    assert ids == sorted(set(ids))
    # (A chunk carries whole sessions; a cohort its fractional tail.)
    assert all((o.table.sessions % 1.0).any()
               for o in result.control_outputs)


def test_worker_count_is_not_a_setting():
    with pytest.raises(TypeError):
        SimulationConfig(shard_workers=2)


def test_solve_mode_is_not_a_setting():
    with pytest.raises(TypeError):
        SimulationConfig(control_mode="incremental")
