"""Integration tests: the fault schedule driving the event simulator."""

from repro.core import eventsim
from repro.faults import (FaultSchedule, controller_outage, gateway_crash,
                          install_delay, install_partial, probe_blackout,
                          report_drop, report_staleness)
from repro.resilience import resilience
from repro.sim.engine import Simulator
from repro.underlay.linkstate import LinkType
from tests.harness import START_S, canonical_bytes, event_engine
from tests.snapshots import nib_history


def _run(seed=5, duration=90.0, **kwargs):
    sim = event_engine(seed, **kwargs)
    return sim, sim.run(START_S, duration)


class TestNoFaultEquivalence:
    def test_empty_schedule_is_byte_identical_to_no_schedule(self):
        __, plain = _run()
        sim, empty = _run(faults=FaultSchedule.empty())
        assert sim.extensions == []  # an empty schedule arms nothing
        assert canonical_bytes(plain) == canonical_bytes(empty)
        assert plain.fault_counters is None
        assert empty.fault_counters is None

    def test_same_schedule_same_seed_reproduces_exactly(self):
        sched = FaultSchedule.of(
            controller_outage(3620.0, 3680.0),
            report_drop(3600.0, 90.0, probability=0.5),
            probe_blackout(3610.0, 20.0, region="HGH"))
        __, a = _run(faults=sched)
        __, b = _run(faults=sched)
        assert canonical_bytes(a) == canonical_bytes(b)
        assert a.fault_counters == b.fault_counters
        assert a.fault_counters["reports_dropped"] > 0


class TestControllerOutage:
    def test_epochs_skipped_and_sessions_survive(self):
        sched = FaultSchedule.of(controller_outage(3601.0, 3700.0))
        sim, result = _run(faults=sched)
        assert result.fault_counters["epochs_skipped"] == 3
        assert sim.skipped_epochs == 3
        # The bootstrap epoch ran; sessions were measured throughout.
        assert len(result.control_outputs) == 1
        assert any(rec.times for rec in result.sessions.values())


class TestGatewayCrash:
    # Elastic capacity control would scale these tiny-demand clusters to
    # one gateway before the crash fires (and crash always spares one),
    # so the crash tests pin the fleet by disabling elasticity.

    def test_crash_removes_and_restart_restores(self):
        sched = FaultSchedule.of(
            gateway_crash(3610.0, 30.0, region="HGH", count=2))
        sim, result = _run(faults=sched, elastic=False)
        assert result.fault_counters["gateways_crashed"] == 2
        assert result.fault_counters["gateways_restarted"] == 2

    def test_no_restart_when_disabled(self):
        sched = FaultSchedule.of(
            gateway_crash(3610.0, 30.0, region="HGH", count=1,
                          restart=False))
        __, result = _run(faults=sched, elastic=False)
        assert result.fault_counters["gateways_crashed"] == 1
        assert result.fault_counters["gateways_restarted"] == 0

    def test_replacement_gateways_inherit_reaction_plans(self):
        sched = FaultSchedule.of(
            gateway_crash(3610.0, 30.0, region="HGH", count=1))
        sim, __ = _run(faults=sched, elastic=False)
        cluster = sim.clusters["HGH"]
        assert cluster.current_plans()
        assert all(g.table is cluster.table
                   for g in cluster.gateways.values())

    def test_at_least_one_gateway_survives(self):
        sched = FaultSchedule.of(
            gateway_crash(3610.0, 30.0, region="HGH", count=99,
                          restart=False))
        sim, result = _run(faults=sched, elastic=False)
        assert all(c.size >= 1 for c in sim.clusters.values())


class TestProbeBlackout:
    def test_blackout_freezes_nib_reports(self):
        sched = FaultSchedule.of(
            probe_blackout(3605.0, 1000.0, region="HGH"))
        sim, result = _run(faults=sched)
        assert result.fault_counters["probes_blacked_out"] > 0
        nib = sim.controller.nib
        # HGH-sourced links stopped reporting at the blackout start;
        # other regions kept reporting until the end of the run.
        hgh = nib_history(nib, "HGH", "SIN", LinkType.INTERNET)[-1]
        sin = nib_history(nib, "SIN", "HGH", LinkType.INTERNET)[-1]
        assert hgh.reported_at < 3606.0
        assert sin.reported_at > 3680.0


class TestReportFaults:
    def test_drop_blinds_the_nib_not_the_gateways(self):
        sched = FaultSchedule.of(report_drop(3605.0, 1000.0, region="HGH"))
        sim, result = _run(faults=sched)
        assert result.fault_counters["reports_dropped"] > 0
        assert nib_history(sim.controller.nib, "HGH", "SIN",
                           LinkType.INTERNET)[-1].reported_at < 3606.0
        # Probing itself never stopped (the drop is on the NIB path).
        assert result.fault_counters["probes_blacked_out"] == 0

    def test_staleness_ages_reports(self):
        sched = FaultSchedule.of(
            report_staleness(3605.0, 1000.0, staleness_s=500.0))
        sim, result = _run(faults=sched)
        assert result.fault_counters["reports_staled"] > 0
        # Back-dated reports lose to the freshest pre-fault entry, so
        # the NIB's view freezes at the fault start instead of tracking
        # the run: only aging data arrives (§6.3's stale-NIB regime).
        report = nib_history(sim.controller.nib, "HGH", "SIN",
                             LinkType.INTERNET)[-1]
        assert report.reported_at < 3605.0


class TestInstallFaults:
    def test_delay_counted_and_tables_eventually_land(self):
        sched = FaultSchedule.of(
            install_delay(3601.0, 1000.0, delay_s=5.0, region="HGH"))
        sim, result = _run(faults=sched)
        assert result.fault_counters["installs_delayed"] > 0
        assert sim.clusters["HGH"].current_entries()

    def test_partial_install_rides_stale_rows(self):
        sched = FaultSchedule.of(
            install_partial(3601.0, 1000.0, keep_fraction=0.5))
        sim, result = _run(faults=sched)
        assert result.fault_counters["installs_truncated"] > 0
        # Sessions keep being measured: lost rows fell back to the
        # bootstrap epoch's tables instead of vanishing.
        assert any(rec.times and max(rec.times) > 3660.0
                   for rec in result.sessions.values())

    def test_delay_and_partial_compose_on_the_same_epoch(self):
        """Both install faults active over the same epochs: the update
        must be truncated first (stale rows merged in), THEN delayed —
        the late install that eventually lands is the truncated one,
        and a delayed stale update never overwrites a newer epoch's."""
        sched = FaultSchedule.of(
            install_partial(3601.0, 1000.0, keep_fraction=0.5),
            install_delay(3601.0, 1000.0, delay_s=5.0))
        sim, result = _run(faults=sched, duration=150.0)
        assert result.fault_counters["installs_truncated"] > 0
        assert result.fault_counters["installs_delayed"] > 0
        # Every faulted epoch was both truncated and delayed, in every
        # region (region=None matches all three).
        assert (result.fault_counters["installs_truncated"]
                == result.fault_counters["installs_delayed"])
        # The delayed+truncated updates landed: tables exist everywhere
        # and sessions kept measuring past the second faulted epoch.
        assert all(c.current_entries() for c in sim.clusters.values())
        assert any(rec.times and max(rec.times) > 3660.0
                   for rec in result.sessions.values())

    @staticmethod
    def _installs_seen(engine):
        """Record every `RegionCluster.install` call of `engine` as
        (time, version, accepted), per region."""
        seen = {code: [] for code in engine.clusters}
        for code, cluster in engine.clusters.items():
            def install(entries, plans, version=None, now=None, *,
                        _real=cluster.install, _log=seen[code]):
                accepted = _real(entries, plans, version=version, now=now)
                _log.append((now, version, accepted))
                return accepted
            cluster.install = install
        return seen

    #: Holds epoch 2's push to HGH (t = START_S + 30) for 40 s: it lands
    #: at +70, after epoch 3's (+60) and before epoch 4's (+90).
    LATE_PUSH = FaultSchedule.of(
        install_delay(START_S + 25.0, 10.0, delay_s=40.0, region="HGH"))

    def test_late_push_never_rolls_a_region_back(self):
        """The paper's install (no resilience layer): a push delayed
        past the next epoch arrives, and the region's table refuses it."""
        engine = event_engine(faults=self.LATE_PUSH)
        seen = self._installs_seen(engine)
        sim = Simulator(start_time=START_S)
        engine.schedule(sim, START_S)
        hgh = engine.clusters["HGH"].table

        sim.run_until(START_S + 45.0)      # epoch 2's push is in flight
        assert hgh.installed_version == 1
        assert {c.table.installed_version
                for code, c in engine.clusters.items()
                if code != "HGH"} == {2}

        sim.run_until(START_S + 65.0)      # epoch 3 landed, on time
        epoch3 = engine.control_outputs[2]
        rows3 = epoch3.path_result.forwarding_tables["HGH"]
        plans3 = epoch3.plans_by_region["HGH"]
        assert (hgh.installed_version, hgh.installed_at) == (
            3, START_S + 60.0)
        assert (hgh.rows, hgh.plans) == (rows3, plans3)

        sim.run_until(START_S + 75.0)      # the late push fired at +70
        assert seen["HGH"][-1] == (START_S + 70.0, 2, False)
        assert (hgh.installed_version, hgh.installed_at) == (
            3, START_S + 60.0)
        assert (hgh.rows, hgh.plans) == (rows3, plans3)
        assert rows3 != engine.control_outputs[1].path_result\
            .forwarding_tables["HGH"]      # or the test proves nothing

        sim.run_until(START_S + 95.0)
        assert [(v, ok) for __, v, ok in seen["HGH"]] == [
            (1, True), (3, True), (2, False), (4, True)]
        for code in engine.clusters:
            if code != "HGH":              # every epoch, in order
                assert [(v, ok) for __, v, ok in seen[code]] == [
                    (1, True), (2, True), (3, True), (4, True)]
        assert engine.faults.counters.installs_delayed == 1

    def test_late_push_defers_the_round_under_resilience(self):
        """The same schedule with the two-phase install armed: nothing
        commits until every region acknowledges, so epoch 2's round is
        deferred (and superseded by epoch 3's) instead of landing late."""
        engine = event_engine(faults=self.LATE_PUSH, resilience=resilience())
        seen = self._installs_seen(engine)
        result = engine.run(START_S, 95.0)
        assert result.fault_counters["installs_delayed"] == 1
        assert result.resilience_counters["installs_deferred"] == 1
        for code in engine.clusters:       # commits are everywhere or nowhere
            assert [(v, ok) for __, v, ok in seen[code]] == [
                (1, True), (3, True), (4, True)]


class TestPassiveAttribution:
    def test_passive_samples_land_on_the_deciding_gateway(self,
                                                          monkeypatch):
        """Satellite regression: round-robin forwarding must book the
        passive window on the gateway that made the decision, so the
        samples spread across the fleet instead of piling onto the
        lowest id."""
        monkeypatch.setattr(eventsim, "PASSIVE_FLUSH_S", 1e9)  # never flush
        sim, __ = _run(duration=60.0, elastic=False)
        tracked_srcs = {pair[0] for pair, rec in sim.sessions.items()
                        if rec.times}
        assert tracked_srcs
        src = next(iter(tracked_srcs))
        with_windows = [g for g in sim.clusters[src].gateways.values()
                        if g.passive._windows]
        assert len(with_windows) > 1
