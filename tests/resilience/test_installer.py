"""Unit tests for the resilience config and two-phase installer."""

from types import SimpleNamespace

import pytest

from repro.core.config import SimulationConfig
from repro.resilience import ResilienceConfig, TwoPhaseInstaller, resilience
from repro.resilience.install import (MAX_INSTALL_RETRIES, STALENESS_EPOCHS,
                                      ResilienceCounters, ResilienceExtension)
from repro.underlay.linkstate import LinkType

I = LinkType.INTERNET


class TestConfig:
    def test_convenience_constructor_is_enabled(self):
        # A config object IS the armed layer: there is no switch on it.
        assert resilience() == ResilienceConfig()
        assert not hasattr(resilience(), "enabled")

    def test_resolved_derives_staleness_threshold(self):
        """Arming the layer hands every cluster the stale-table
        threshold of the deployment's epoch length."""
        class Cluster:
            def arm_resilience(self, config, counters, stale_after_s):
                self.armed = (config, stale_after_s)

        engine = SimpleNamespace(sim_config=SimulationConfig(epoch_s=60.0),
                                 clusters={"HGH": Cluster(), "SIN": Cluster()})
        ResilienceExtension(engine, resilience())
        for cluster in engine.clusters.values():
            assert cluster.armed == (resilience(), STALENESS_EPOCHS * 60.0)


class TestInstaller:
    def test_versions_are_monotonic(self):
        installer = TwoPhaseInstaller()
        assert [installer.next_version() for __ in range(3)] == [1, 2, 3]

    def test_is_current_tracks_newest_proposal(self):
        installer = TwoPhaseInstaller()
        v1 = installer.next_version()
        assert installer.is_current(v1)
        v2 = installer.next_version()
        assert not installer.is_current(v1)
        assert installer.is_current(v2)

    def test_mark_committed_never_regresses(self):
        installer = TwoPhaseInstaller()
        installer.next_version()
        installer.next_version()
        installer.mark_committed(2)
        installer.mark_committed(1)
        assert installer.committed_version == 2
        assert installer.counters.installs_committed == 2

    def test_backoff_is_bounded_exponential(self):
        installer = TwoPhaseInstaller()
        assert [installer.backoff_delay(a) for a in (1, 2, 3)] \
            == [2.0, 4.0, 8.0]
        with pytest.raises(ValueError):
            installer.backoff_delay(0)

    def test_retry_budget(self):
        installer = TwoPhaseInstaller()
        assert not installer.exhausted(MAX_INSTALL_RETRIES)
        assert installer.exhausted(MAX_INSTALL_RETRIES + 1)

    def test_validate_finds_violations_and_counts(self):
        installer = TwoPhaseInstaller()
        tables = {"HGH": {1: ("SIN", I)}, "SIN": {1: ("HGH", I)}}
        violations = installer.validate(tables, {}, {"HGH": 1, "SIN": 1}, [])
        assert violations
        assert installer.counters.violations_found == len(violations)

    def test_counters_dict_round_trip(self):
        installer = TwoPhaseInstaller()
        installer.counters.installs_rejected += 2
        doc = installer.counters.as_dict()
        assert doc["installs_rejected"] == 2
        assert sum(doc.values()) == 2
        assert ResilienceCounters(**doc) == installer.counters
