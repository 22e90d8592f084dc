"""Tests for link-state estimation and degradation detection."""

import numpy as np
import pytest

from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.estimator import (EstimatorBank, LinkStateEstimator,
                                       reaction_active_series)

MONITORING = MonitoringConfig()


class _Link:
    """One link's `EstimatorBank`, fed a burst at a time through
    `ingest` and read through its `LinkStateEstimator` view."""

    def __init__(self, **reaction_overrides):
        self.bank = EstimatorBank((1,), MONITORING,
                                  ReactionConfig(**reaction_overrides))
        self.view = LinkStateEstimator(self.bank, 0)

    def burst(self, t, lat, lost, sent=15):
        """Ingest a burst of `sent` probes, `lost` of them lost; returns
        the degraded flag."""
        self.bank.ingest(0, t, lat, lost / sent)
        return self.view.degraded


class TestLinkStateEstimator:
    def test_no_estimate_before_samples(self):
        view = _Link().view
        assert (view.latency_ms, view.loss_rate, view.degraded) == \
            (None, None, False)

    def test_first_sample_initialises_ewma(self):
        link = _Link()
        link.burst(0.0, 120.0, 0)
        assert link.view.latency_ms == 120.0 and link.view.loss_rate == 0.0

    def test_ewma_converges(self):
        link = _Link()
        link.burst(0.0, 100.0, 0)
        for i in range(50):
            link.burst(i + 1.0, 200.0, 0)
        assert link.view.latency_ms == pytest.approx(200.0, rel=0.01)

    def test_trigger_needs_consecutive_bad_bursts(self):
        link = _Link(trigger_bursts=2)
        assert not link.burst(0.0, 900.0, 0)  # first bad
        assert link.burst(0.4, 900.0, 0)      # second: trigger

    def test_interrupted_bad_run_does_not_trigger(self):
        link = _Link(trigger_bursts=2, ewma_loss_threshold=1.0)
        link.burst(0.0, 900.0, 0)
        link.burst(0.4, 100.0, 0)  # healthy: run resets
        assert not link.burst(0.8, 900.0, 0)

    def test_recovery_needs_consecutive_good_bursts(self):
        link = _Link(trigger_bursts=1, recover_bursts=3,
                     ewma_loss_threshold=1.0)
        link.burst(0.0, 900.0, 0)
        assert link.view.degraded
        link.burst(0.4, 100.0, 0)
        link.burst(0.8, 100.0, 0)
        assert link.view.degraded  # only two good bursts so far
        link.burst(1.2, 100.0, 0)
        assert not link.view.degraded

    def test_burst_loss_triggers(self):
        link = _Link(trigger_bursts=1)
        assert link.burst(0.0, 100.0, 5)  # 33% burst loss

    def test_ewma_loss_triggers_on_sustained_moderate_loss(self):
        link = _Link(trigger_bursts=2, loss_threshold=0.5,
                     ewma_loss_threshold=0.02)
        # 1/15 = 6.7% per burst: below the burst threshold but the EWMA
        # climbs past 2% after a couple of bursts.
        degraded = False
        for i in range(10):
            degraded = link.burst(i * 0.4, 100.0, 1)
        assert degraded

    def test_degradation_count(self):
        link = _Link(trigger_bursts=1, recover_bursts=1,
                     ewma_loss_threshold=1.0)
        for i in range(3):
            link.burst(i * 1.0, 900.0, 0)
            link.burst(i * 1.0 + 0.4, 100.0, 0)
        assert link.view.degradation_count == 3

    def test_passive_samples_feed_estimator(self):
        link = _Link(trigger_bursts=1)
        link.bank.ingest(0, 0.0, 500.0, 0.0)  # a passive window's sample
        assert link.view.degraded
        assert link.view.last_update == 0.0

    def test_validation_of_hysteresis(self):
        with pytest.raises(ValueError):
            ReactionConfig(trigger_bursts=0)


class TestReactionActiveSeries:
    def test_empty_series(self):
        flags = reaction_active_series(np.zeros(0), np.zeros(0),
                                       ReactionConfig(), MONITORING)
        assert flags.size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reaction_active_series(np.zeros(3), np.zeros(4), ReactionConfig(),
                                   MONITORING)

    def test_all_healthy_never_active(self):
        lat = np.full(100, 100.0)
        loss = np.zeros(100)
        flags = reaction_active_series(lat, loss, ReactionConfig(), MONITORING)
        assert not flags.any()

    def test_sustained_degradation_detected(self):
        lat = np.full(100, 100.0)
        lat[40:80] = 900.0
        flags = reaction_active_series(lat, np.zeros(100),
                                       ReactionConfig(trigger_bursts=2,
                                                      recover_bursts=4),
                                       MONITORING)
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

        link = _Link(trigger_bursts=2, recover_bursts=6)
        stateful = [link.burst(i * 0.4, float(lat[i]), int(lost[i]))
                    for i in range(n)]
        vectorised = reaction_active_series(lat, lost / 15.0, reaction,
                                            MONITORING)
        mismatch = np.mean(np.array(stateful) != vectorised)
        # The only allowed divergence is the EWMA first-sample seeding,
        # which can shift early flags; in steady state they agree.
        assert mismatch < 0.002

    def test_short_blip_ignored(self):
        lat = np.full(50, 100.0)
        lat[20] = 900.0  # single bad burst, trigger needs 2
        flags = reaction_active_series(lat, np.zeros(50),
                                       ReactionConfig(trigger_bursts=2),
                                       MONITORING)
        assert not flags.any()

    def test_trigger_one_reacts_immediately(self):
        lat = np.full(50, 100.0)
        lat[20:30] = 900.0
        flags = reaction_active_series(lat, np.zeros(50),
                                       ReactionConfig(trigger_bursts=1),
                                       MONITORING)
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
        block = reaction_active_series(lat, loss, reaction, MONITORING)
        assert block.shape == (rows, n) and block.dtype == bool
        assert block.any() and not block[3].any()
        for r in range(rows):
            np.testing.assert_array_equal(
                block[r],
                reaction_active_series(lat[r], loss[r], reaction, MONITORING))

    def test_block_shorter_than_the_hysteresis_windows(self):
        lat = np.full((3, 2), 900.0)
        flags = reaction_active_series(
            lat, np.zeros((3, 2)),
            ReactionConfig(trigger_bursts=3, recover_bursts=4), MONITORING)
        assert flags.shape == (3, 2) and not flags.any()

    def test_empty_block_keeps_its_shape(self):
        flags = reaction_active_series(np.zeros((4, 0)), np.zeros((4, 0)),
                                       ReactionConfig(), MONITORING)
        assert flags.shape == (4, 0)
