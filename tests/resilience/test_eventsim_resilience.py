"""Acceptance tests for the safe-update & recovery layer in the simulator.

The ISSUE's acceptance criteria, asserted end to end:

* **armed under chaos**, no invariant-violating install ever commits
  (blackholed-stream-seconds drop to zero while the unprotected
  baseline blackholes);
* a **warm restart** reconverges at least one epoch faster than a cold
  restart after the same controller outage;
* **hysteresis** produces strictly fewer failover flaps than the same
  storm without it.

The heavy scenario runs are shared through the `recovery` experiment's
own testbed (one module-scoped report), so the acceptance suite asserts
against exactly what the experiment publishes.  That a run WITHOUT the
layer is byte-identical to a build without it is a cell of
``tests/core/test_extension_matrix.py`` and the recorded digests of
``test_partition_disabled.py``.
"""

import pytest

from repro import obs
from repro.experiments import recovery
from repro.faults import FaultSchedule, controller_outage, install_partial
from repro.resilience import resilience, validate_install
from repro.resilience.install import ResilienceExtension
from tests.harness import START_S, event_engine, extension


def _row(report, scenario, mode):
    """The report's row of one (scenario, mode)."""
    return next(r for r in report.rows
                if (r.scenario, r.mode) == (scenario, mode))


def _events(hub, kind):
    """The trace events of one kind a telemetry hub recorded."""
    return [e for e in hub.tracer.events if e.kind == kind]


def _run(seed=5, duration=90.0, **kwargs):
    sim = event_engine(seed, **kwargs)
    return sim, sim.run(START_S, duration)


@pytest.fixture(scope="module")
def report() -> recovery.RecoveryReport:
    """One quick-profile recovery experiment, shared by the assertions."""
    return recovery.run(flap_events=3, post_epochs=5)


class TestSafeInstallsUnderChaos:
    def test_unprotected_baseline_blackholes(self, report):
        assert _row(report, "install-chaos", "off").blackholed_s > 0.0

    def test_no_violating_install_ever_commits(self, report):
        row = _row(report, "install-chaos", "on")
        # The same chaos that blackholed the baseline: zero blackholed
        # stream-seconds because rejected updates never landed.
        assert row.blackholed_s == 0.0
        assert row.counter("installs_rejected") > 0
        assert row.counter("violations_found") > 0
        assert row.counter("installs_committed") > 0

    def test_retry_budget_bounded(self, report):
        row = _row(report, "install-chaos", "on")
        assert row.counter("installs_retried") <= (
            (row.counter("installs_rejected")
             + row.counter("installs_deferred")))
        assert row.counter("installs_abandoned") >= 1

    def test_final_tables_satisfy_invariants_live(self):
        """After chaos, what is actually installed passes validation."""
        sched = FaultSchedule.of(
            install_partial(3601.0, 100.0, keep_fraction=0.4))
        sim, __ = _run(duration=210.0, faults=sched,
                       resilience=resilience(),
                       sib_params={"min_history": 4, "refit_every": 2})
        tables = {code: c.current_entries()
                  for code, c in sim.clusters.items()}
        plans = {code: c.current_plans()
                 for code, c in sim.clusters.items()}
        sizes = {code: c.size for code, c in sim.clusters.items()}
        assert validate_install(tables, plans, sizes) == []
        # Committed versions are uniform across every gateway.
        versions = {g.table.installed_version
                    for c in sim.clusters.values()
                    for g in c.gateways.values()}
        assert len(versions) == 1
        installer = extension(sim, ResilienceExtension).installer
        assert versions == {installer.committed_version}


class TestWarmRestart:
    def test_outage_triggers_exactly_one_restart(self, report):
        cold = _row(report, "controller-outage", "cold")
        warm = _row(report, "controller-outage", "warm")
        assert cold.counter("restores_cold") == 1
        assert cold.counter("restores_warm") == 0
        assert warm.counter("restores_warm") == 1
        assert warm.counter("restores_cold") == 0

    def test_warm_restore_cuts_reconvergence_by_at_least_one_epoch(
            self, report):
        cold = _row(report, "controller-outage", "cold").reconverge_epochs
        warm = _row(report, "controller-outage", "warm").reconverge_epochs
        assert cold >= 1
        assert warm <= cold - 1

    def test_checkpoints_taken_every_epoch(self, report):
        warm = _row(report, "controller-outage", "warm")
        assert warm.counter("checkpoints_taken") > 0


class TestHysteresis:
    def test_strictly_fewer_flaps_with_hysteresis(self, report):
        off = _row(report, "flap-storm", "no-hysteresis").flaps
        on = _row(report, "flap-storm", "hysteresis").flaps
        assert off >= 2
        assert on < off

    def test_holddown_suppressions_counted(self, report):
        assert _row(report, "flap-storm", "hysteresis")\
            .counter("holddown_suppressed") > 0


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def clean_hub(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_resilience_events_are_traced(self):
        sched = FaultSchedule.of(
            controller_outage(3610.0, 3655.0),
            install_partial(3661.0, 40.0, keep_fraction=0.4))
        tel = obs.enable()
        sim, __ = _run(duration=150.0, faults=sched,
                       resilience=resilience(),
                       sib_params={"min_history": 4, "refit_every": 2})
        kinds = {e.kind for e in tel.tracer.events}
        assert "resilience_install_commit" in kinds
        assert "resilience_install_rejected" in kinds
        assert "resilience_install_retry" in kinds
        assert "resilience_checkpoint" in kinds
        assert "resilience_restore" in kinds
        restore = _events(tel, "resilience_restore")[0]
        assert restore.fields["warm"] in (True, False)
