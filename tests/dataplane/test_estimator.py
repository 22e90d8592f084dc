"""Tests for link-state estimation and degradation detection."""

import numpy as np
import pytest

from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.estimator import (LinkStateEstimator,
                                       reaction_active_series)
from repro.dataplane.probing import ProbeBurst


def _estimator(**reaction_overrides):
    reaction = ReactionConfig(**reaction_overrides)
    return LinkStateEstimator(MonitoringConfig(), reaction)


def _burst(t, lat, lost):
    return ProbeBurst(t, lat, 15, lost)


class TestLinkStateEstimator:
    def test_estimate_before_samples_raises(self):
        with pytest.raises(RuntimeError):
            _estimator().estimate()

    def test_first_sample_initialises_ewma(self):
        est = _estimator()
        est.ingest_burst(_burst(0.0, 120.0, 0))
        lat, loss = est.estimate()
        assert lat == 120.0 and loss == 0.0

    def test_ewma_converges(self):
        est = _estimator()
        est.ingest_burst(_burst(0.0, 100.0, 0))
        for i in range(50):
            est.ingest_burst(_burst(i + 1.0, 200.0, 0))
        lat, __ = est.estimate()
        assert lat == pytest.approx(200.0, rel=0.01)

    def test_trigger_needs_consecutive_bad_bursts(self):
        est = _estimator(trigger_bursts=2)
        assert not est.ingest_burst(_burst(0.0, 900.0, 0))  # first bad
        assert est.ingest_burst(_burst(0.4, 900.0, 0))      # second: trigger

    def test_interrupted_bad_run_does_not_trigger(self):
        est = _estimator(trigger_bursts=2, ewma_loss_threshold=1.0)
        est.ingest_burst(_burst(0.0, 900.0, 0))
        est.ingest_burst(_burst(0.4, 100.0, 0))  # healthy: run resets
        assert not est.ingest_burst(_burst(0.8, 900.0, 0))

    def test_recovery_needs_consecutive_good_bursts(self):
        est = _estimator(trigger_bursts=1, recover_bursts=3,
                         ewma_loss_threshold=1.0)
        est.ingest_burst(_burst(0.0, 900.0, 0))
        assert est.degraded
        est.ingest_burst(_burst(0.4, 100.0, 0))
        est.ingest_burst(_burst(0.8, 100.0, 0))
        assert est.degraded  # only two good bursts so far
        est.ingest_burst(_burst(1.2, 100.0, 0))
        assert not est.degraded

    def test_burst_loss_triggers(self):
        est = _estimator(trigger_bursts=1)
        assert est.ingest_burst(_burst(0.0, 100.0, 5))  # 33% burst loss

    def test_ewma_loss_triggers_on_sustained_moderate_loss(self):
        est = _estimator(trigger_bursts=2, loss_threshold=0.5,
                         ewma_loss_threshold=0.02)
        # 1/15 = 6.7% per burst: below the burst threshold but the EWMA
        # climbs past 2% after a couple of bursts.
        degraded = False
        for i in range(10):
            degraded = est.ingest_burst(_burst(i * 0.4, 100.0, 1))
        assert degraded

    def test_degradation_count(self):
        est = _estimator(trigger_bursts=1, recover_bursts=1,
                         ewma_loss_threshold=1.0)
        for i in range(3):
            est.ingest_burst(_burst(i * 1.0, 900.0, 0))
            est.ingest_burst(_burst(i * 1.0 + 0.4, 100.0, 0))
        assert est.degradation_count == 3

    def test_passive_samples_feed_estimator(self):
        est = _estimator(trigger_bursts=1)
        est.ingest_passive(0.0, 500.0, 0.0)
        assert est.degraded
        assert est.last_update == 0.0

    def test_validation_of_hysteresis(self):
        with pytest.raises(ValueError):
            ReactionConfig(trigger_bursts=0)


class TestReactionActiveSeries:
    def test_empty_series(self):
        flags = reaction_active_series(np.zeros(0), np.zeros(0),
                                       ReactionConfig())
        assert flags.size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reaction_active_series(np.zeros(3), np.zeros(4), ReactionConfig())

    def test_all_healthy_never_active(self):
        lat = np.full(100, 100.0)
        loss = np.zeros(100)
        flags = reaction_active_series(lat, loss, ReactionConfig())
        assert not flags.any()

    def test_sustained_degradation_detected(self):
        lat = np.full(100, 100.0)
        lat[40:80] = 900.0
        flags = reaction_active_series(lat, np.zeros(100),
                                       ReactionConfig(trigger_bursts=2,
                                                      recover_bursts=4))
        # Trigger at the 2nd bad burst (index 41).
        assert not flags[40]
        assert flags[41:79].all()
        # Recovery after 4 good bursts: indices 80..82 still degraded.
        assert flags[82]
        assert not flags[84:].any()

    def test_matches_stateful_estimator(self):
        """The vectorised detector equals the burst-by-burst state machine."""
        rng = np.random.default_rng(7)
        n = 3000
        lat = np.where(rng.random(n) < 0.05, 900.0, 100.0)
        lost = (rng.random(n) < 0.04) * 4
        reaction = ReactionConfig(trigger_bursts=2, recover_bursts=6)

        est = LinkStateEstimator(MonitoringConfig(), reaction)
        stateful = []
        for i in range(n):
            stateful.append(est.ingest_burst(
                ProbeBurst(i * 0.4, float(lat[i]), 15, int(lost[i]))))
        vectorised = reaction_active_series(lat, lost / 15.0, reaction)
        mismatch = np.mean(np.array(stateful) != vectorised)
        # The only allowed divergence is the EWMA first-sample seeding,
        # which can shift early flags; in steady state they agree.
        assert mismatch < 0.002

    def test_short_blip_ignored(self):
        lat = np.full(50, 100.0)
        lat[20] = 900.0  # single bad burst, trigger needs 2
        flags = reaction_active_series(lat, np.zeros(50),
                                       ReactionConfig(trigger_bursts=2))
        assert not flags.any()

    def test_trigger_one_reacts_immediately(self):
        lat = np.full(50, 100.0)
        lat[20:30] = 900.0
        flags = reaction_active_series(lat, np.zeros(50),
                                       ReactionConfig(trigger_bursts=1))
        assert flags[20]

    def test_rows_of_a_block_equal_one_series_calls(self):
        """Leading axes are independent series detected in one pass."""
        rng = np.random.default_rng(11)
        rows, n = 9, 750
        lat = np.where(rng.random((rows, n)) < 0.06, 900.0, 100.0)
        loss = (rng.random((rows, n)) < 0.05) * rng.integers(
            1, 9, (rows, n)) / 15.0
        lat[3] = 100.0          # a healthy row
        loss[3] = 0.0
        lat[4, 100:400] = 900.0  # a long degradation
        reaction = ReactionConfig(trigger_bursts=2, recover_bursts=6)
        block = reaction_active_series(lat, loss, reaction)
        assert block.shape == (rows, n) and block.dtype == bool
        assert block.any() and not block[3].any()
        for r in range(rows):
            np.testing.assert_array_equal(
                block[r], reaction_active_series(lat[r], loss[r], reaction))

    def test_block_shorter_than_the_hysteresis_windows(self):
        lat = np.full((3, 2), 900.0)
        flags = reaction_active_series(
            lat, np.zeros((3, 2)),
            ReactionConfig(trigger_bursts=3, recover_bursts=4))
        assert flags.shape == (3, 2) and not flags.any()

    def test_empty_block_keeps_its_shape(self):
        flags = reaction_active_series(np.zeros((4, 0)), np.zeros((4, 0)),
                                       ReactionConfig())
        assert flags.shape == (4, 0)
