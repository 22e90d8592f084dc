"""Integration tests: control partitions against the event simulator.

The blackhole-collapse and heal-reconciliation behavior of the
partition-tolerance pair (soft-state membership + regional
sub-controllers), including the heal RACE: a regional install still in
flight when the partition heals must lose to the fenced global commit
at the gateways' version guard.
"""

import pytest

from repro.controlplane import membership, regional_control
from repro.controlplane.membership import MembershipExtension
from repro.controlplane.regional import (REGIONAL_STREAM_BASE,
                                         RegionalExtension)
from repro.faults import FaultSchedule, control_partition, install_delay
from repro.resilience.config import resilience
from repro.resilience.install import ResilienceExtension
from repro.resilience.invariants import validate_install
from tests.harness import event_engine, extension

_START = 3600.0
_EPOCH_S = 30.0
_SEVERED = ("HGH", "SIN")
_TRACKED = [("HGH", "SIN"), ("SIN", "HGH"), ("HGH", "FRA")]


def _system(schedule, **kwargs):
    return event_engine(
        elastic=False, tracked_pairs=list(_TRACKED),
        sib_params={"min_history": 4, "refit_every": 2},
        faults=schedule, resilience=resilience(), **kwargs)


def _partition_schedule(epochs=4):
    return FaultSchedule.of(control_partition(
        _START + 5 * _EPOCH_S + 1.0, epochs * _EPOCH_S, _SEVERED))


def test_regional_needs_the_resilience_layer():
    with pytest.raises(ValueError, match="resilience"):
        event_engine(elastic=False, regional=regional_control())


def test_partition_blackholes_without_degraded_mode():
    """Baseline: every rebind during the cut binds intra-partition
    sessions to stream ids the severed tables never learn."""
    system = _system(_partition_schedule())
    with system:
        result = system.run(_START, 450.0)
    intra = [result.sessions[p] for p in (("HGH", "SIN"), ("SIN", "HGH"))]
    assert all(rec.blackholed for rec in intra)
    assert result.fault_counters["reports_severed"] > 0
    assert result.fault_counters["installs_severed"] > 0
    assert result.partition_counters is None


def test_degraded_mode_keeps_intra_partition_sessions_alive():
    system = _system(_partition_schedule(),
                     membership=membership(), regional=regional_control())
    with system:
        result = system.run(_START, 450.0)
    for pair in (("HGH", "SIN"), ("SIN", "HGH")):
        assert result.sessions[pair].blackholed == []
    pc = result.partition_counters
    assert pc["partitions_started"] == 1
    assert pc["partitions_healed"] == 1
    assert pc["regional_epochs"] >= 2
    assert pc["regional_installs_committed"] >= 1
    assert pc["regional_installs_rejected"] == 0
    assert pc["reconcile_fences"] == 1
    assert pc["reconvergence_epochs"] >= 1
    mc = result.membership_counters
    assert mc["expiries"] > 0
    assert mc["regions_demoted"] > 0


def test_heal_sweeps_regional_streams_and_no_regional_controller_remains():
    system = _system(_partition_schedule(),
                     membership=membership(), regional=regional_control())
    with system:
        system.run(_START, 450.0)
        assert extension(system, RegionalExtension).subs == {}
        for cluster in system.clusters.values():
            for sid in cluster.current_entries():
                assert sid < REGIONAL_STREAM_BASE


def test_heal_race_inflight_regional_install_loses_to_fenced_commit():
    """Satellite: an install-delay fault holds the LAST regional push
    past the heal.  The fenced global commit lands first with a
    strictly newer version, so the late regional install is discarded
    by the region table's version guard — stale regional state never
    clobbers newer global state."""
    cut_start = _START + 5 * _EPOCH_S + 1.0          # covers 3 epochs
    cut_s = 3 * _EPOCH_S
    last_tick = _START + 8 * _EPOCH_S                # final regional epoch
    schedule = FaultSchedule.of(
        control_partition(cut_start, cut_s, _SEVERED),
        # Active only at the last regional tick, longer than the time
        # to heal: the push is in flight when the partition closes.
        install_delay(last_tick - 5.0, 10.0, 40.0, region="HGH"))
    system = _system(schedule, membership=membership(),
                     regional=regional_control())
    with system:
        result = system.run(_START, 450.0)
        assert result.fault_counters["installs_delayed"] >= 1
        pc = result.partition_counters
        assert pc["partitions_healed"] == 1
        assert pc["reconcile_fences"] == 1
        committed = extension(
            system, ResilienceExtension).installer.committed_version
        for code in _SEVERED:
            cluster = system.clusters[code]
            # The fenced global version won; no regional rows survive.
            for gateway in cluster.gateways.values():
                assert gateway.table.installed_version == committed
            for sid in cluster.current_entries():
                assert sid < REGIONAL_STREAM_BASE
        # The merged post-heal tables still satisfy every routing
        # invariant for the last epoch's streams.
        output = system.control_outputs[-1]
        streams = sorted({(a.stream.stream_id, a.stream.src, a.stream.dst)
                          for a in output.path_result.assignments})
        tables = {code: cluster.current_entries()
                  for code, cluster in system.clusters.items()}
        plans = {code: cluster.current_plans()
                 for code, cluster in system.clusters.items()}
        sizes = {code: cluster.size
                 for code, cluster in system.clusters.items()}
        assert validate_install(tables, plans, sizes, streams) == []


def test_membership_starves_and_rejoins_across_the_cut():
    """Membership alone (no regional control): the severed regions
    expire out of global path control during the cut and rejoin after
    heal when their reports resume."""
    system = _system(_partition_schedule(), membership=membership())
    with system:
        result = system.run(_START, 450.0)
        table = extension(system, MembershipExtension).table
        mc = result.membership_counters
        assert mc["expiries"] > 0
        assert mc["regions_demoted"] > 0
        # Post-heal: refreshes resumed, both regions live again.
        for code in _SEVERED:
            assert table.alive_count(code) > 0
