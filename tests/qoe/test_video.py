"""Tests for the video QoE models."""

import numpy as np
import pytest

from repro.qoe.video import (FEC_RECOVERABLE_LOSS, STALLED_FPS_FRACTION,
                             frame_rate_series, stall_series,
                             stall_duration_buckets, stall_durations)


class TestStallSeries:
    def test_healthy_network_no_stalls(self):
        lat = np.full(100, 120.0)
        loss = np.full(100, 0.001)
        assert not stall_series(lat, loss).any()

    def test_high_latency_stalls(self):
        lat = np.array([100.0, 500.0, 100.0])
        loss = np.zeros(3)
        assert stall_series(lat, loss).tolist() == [False, True, False]

    def test_unrecoverable_loss_stalls(self):
        lat = np.full(3, 100.0)
        loss = np.array([0.0, 0.2, 0.04])
        assert stall_series(lat, loss).tolist() == [False, True, False]

    def test_fec_threshold_boundary(self):
        assert FEC_RECOVERABLE_LOSS == 0.05
        loss = np.array([0.05, 0.0501])
        flags = stall_series(np.full(2, 100.0), loss)
        assert flags.tolist() == [False, True]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stall_series(np.zeros(3), np.zeros(4))


class TestStallDurations:
    def test_single_run(self):
        stalled = np.array([False, True, True, True, False])
        np.testing.assert_allclose(stall_durations(stalled, 2.0), [6.0])

    def test_multiple_runs(self):
        stalled = np.array([True, False, True, True, False, True])
        np.testing.assert_allclose(stall_durations(stalled, 1.0),
                                   [1.0, 2.0, 1.0])

    def test_all_clear(self):
        assert stall_durations(np.zeros(5, dtype=bool), 1.0).size == 0

    def test_all_stalled(self):
        np.testing.assert_allclose(
            stall_durations(np.ones(5, dtype=bool), 1.0), [5.0])

    def test_empty(self):
        assert stall_durations(np.zeros(0, dtype=bool), 1.0).size == 0

    def test_buckets(self):
        stalled = np.concatenate([
            np.ones(3, dtype=bool), [False],    # 3 s  -> 2-5 s bucket
            np.ones(7, dtype=bool), [False],    # 7 s  -> 5-10 s
            np.ones(12, dtype=bool), [False],   # 12 s -> >10 s
            np.ones(1, dtype=bool), [False]])   # 1 s  -> ignored
        assert stall_duration_buckets(stalled, 1.0) == (1, 1, 1)


class TestFrameRate:
    def test_nominal_when_healthy(self):
        fps = frame_rate_series(np.full(10, 100.0), np.zeros(10))
        np.testing.assert_allclose(fps, 25.0)

    def test_loss_degrades_frames(self):
        fps = frame_rate_series(np.full(1, 100.0), np.array([0.04]))
        assert fps[0] == 25.0  # within FEC budget
        fps = frame_rate_series(np.full(1, 100.0), np.array([0.1]))
        assert fps[0] < 25.0

    def test_stall_floors_frame_rate(self):
        assert STALLED_FPS_FRACTION == 0.2
        fps = frame_rate_series(np.array([900.0]), np.zeros(1))
        assert fps[0] == pytest.approx(5.0)

    def test_total_loss_gives_zero_fps_before_floor(self):
        fps = frame_rate_series(np.full(1, 100.0), np.array([0.5]))
        assert fps[0] == pytest.approx(0.0)

    def test_monotone_in_loss(self):
        losses = np.linspace(0, 0.3, 20)
        fps = frame_rate_series(np.full(20, 100.0), losses)
        assert np.all(np.diff(fps) <= 1e-9)
