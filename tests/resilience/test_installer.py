"""Unit tests for the resilience config and two-phase installer."""

import pytest

from repro.resilience import ResilienceConfig, TwoPhaseInstaller, resilience
from repro.underlay.linkstate import LinkType

I = LinkType.INTERNET


class TestConfig:
    def test_convenience_constructor_is_enabled(self):
        # A config object IS the armed layer: there is no switch on it.
        assert resilience() == ResilienceConfig()
        assert not hasattr(resilience(), "enabled")

    def test_resolved_derives_staleness_threshold(self):
        cfg = resilience().resolved(epoch_s=60.0)
        assert cfg.staleness_threshold_s == cfg.staleness_epochs * 60.0

    def test_resolved_keeps_explicit_threshold(self):
        cfg = ResilienceConfig(staleness_threshold_s=42.0)
        assert cfg.resolved(60.0).staleness_threshold_s == 42.0

    @pytest.mark.parametrize("kwargs", [
        {"max_install_retries": -1},
        {"retry_backoff_s": 0.0},
        {"retry_backoff_factor": 0.5},
        {"staleness_epochs": 0},
        {"staleness_threshold_s": -1.0},
        {"failback_holddown_s": -1.0},
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)


class TestInstaller:
    def test_versions_are_monotonic(self):
        installer = TwoPhaseInstaller(resilience())
        assert [installer.next_version() for __ in range(3)] == [1, 2, 3]

    def test_is_current_tracks_newest_proposal(self):
        installer = TwoPhaseInstaller(resilience())
        v1 = installer.next_version()
        assert installer.is_current(v1)
        v2 = installer.next_version()
        assert not installer.is_current(v1)
        assert installer.is_current(v2)

    def test_mark_committed_never_regresses(self):
        installer = TwoPhaseInstaller(resilience())
        installer.next_version()
        installer.next_version()
        installer.mark_committed(2)
        installer.mark_committed(1)
        assert installer.committed_version == 2
        assert installer.counters.installs_committed == 2

    def test_backoff_is_bounded_exponential(self):
        installer = TwoPhaseInstaller(resilience())
        assert [installer.backoff_delay(a) for a in (1, 2, 3)] \
            == [2.0, 4.0, 8.0]
        with pytest.raises(ValueError):
            installer.backoff_delay(0)

    def test_retry_budget(self):
        installer = TwoPhaseInstaller(resilience())
        budget = installer.config.max_install_retries
        assert not installer.exhausted(budget)
        assert installer.exhausted(budget + 1)

    def test_validate_finds_violations_and_counts(self):
        installer = TwoPhaseInstaller(resilience())
        tables = {"HGH": {1: ("SIN", I)}, "SIN": {1: ("HGH", I)}}
        violations = installer.validate(tables, {}, {"HGH": 1, "SIN": 1}, [])
        assert violations
        assert installer.counters.violations_found == len(violations)

    def test_counters_dict_round_trip(self):
        installer = TwoPhaseInstaller(resilience())
        installer.counters.installs_rejected += 2
        doc = installer.counters.as_dict()
        assert doc["installs_rejected"] == 2
        assert installer.counters.total() == 2
