"""Tests for the E-model audio fluency score."""

import numpy as np
import pytest

from repro.qoe.audio import audio_fluency_series, e_model_r_factor, r_to_mos


class TestRFactor:
    def test_perfect_network_near_base(self):
        r = e_model_r_factor(np.zeros(1), np.zeros(1))
        assert r[0] == pytest.approx(93.2)

    def test_latency_reduces_r(self):
        r_low = e_model_r_factor(np.array([50.0]), np.zeros(1))
        r_high = e_model_r_factor(np.array([400.0]), np.zeros(1))
        assert r_high < r_low

    def test_knee_at_177ms(self):
        slope_before = (e_model_r_factor(np.array([150.0]), np.zeros(1))
                        - e_model_r_factor(np.array([100.0]), np.zeros(1)))
        slope_after = (e_model_r_factor(np.array([300.0]), np.zeros(1))
                       - e_model_r_factor(np.array([250.0]), np.zeros(1)))
        assert slope_after < slope_before  # steeper impairment past the knee

    def test_loss_reduces_r(self):
        r_clean = e_model_r_factor(np.array([100.0]), np.array([0.0]))
        r_lossy = e_model_r_factor(np.array([100.0]), np.array([0.05]))
        assert r_lossy < r_clean - 10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            e_model_r_factor(np.zeros(2), np.zeros(3))


class TestMosMapping:
    def test_r_zero_is_mos_one(self):
        assert r_to_mos(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_r_100_near_best(self):
        assert r_to_mos(np.array([100.0]))[0] == pytest.approx(4.5, abs=0.1)

    def test_monotone(self):
        r = np.linspace(0, 100, 50)
        mos = r_to_mos(r)
        assert np.all(np.diff(mos) >= -1e-9)

    def test_clipped_outside_range(self):
        assert r_to_mos(np.array([-50.0]))[0] == 1.0
        assert r_to_mos(np.array([150.0]))[0] == r_to_mos(np.array([100.0]))[0]


class TestFluency:
    def test_scores_in_one_to_five(self):
        lat = np.random.default_rng(0).uniform(0, 2000, 1000)
        loss = np.random.default_rng(1).uniform(0, 1, 1000)
        scores = audio_fluency_series(lat, loss)
        assert np.all(scores >= 1.0) and np.all(scores <= 5.0)

    def test_perfect_network_scores_five(self):
        scores = audio_fluency_series(np.zeros(1), np.zeros(1))
        assert scores[0] == pytest.approx(5.0, abs=0.2)

    def test_terrible_network_scores_one(self):
        scores = audio_fluency_series(np.array([3000.0]), np.array([0.5]))
        assert scores[0] == pytest.approx(1.0)

    def test_monotone_in_loss(self):
        losses = np.linspace(0, 0.5, 30)
        scores = audio_fluency_series(np.full(30, 100.0), losses)
        assert np.all(np.diff(scores) <= 1e-9)
