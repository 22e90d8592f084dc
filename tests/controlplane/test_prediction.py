"""Tests for the DTFT demand predictor."""

import numpy as np
import pytest

from repro.controlplane.prediction import DTFTPredictor, RollingPredictor


def _periodic(n_days=4, slot_s=300.0):
    t = np.arange(0, n_days * 86400.0, slot_s)
    h = (t / 3600.0) % 24.0
    return 100.0 + 80.0 * np.exp(-0.5 * ((h - 14.0) / 2.5) ** 2)


class TestDTFTPredictor:
    def test_rejects_bad_harmonics(self):
        with pytest.raises(ValueError):
            DTFTPredictor(0)

    def test_rejects_short_history(self):
        with pytest.raises(ValueError):
            DTFTPredictor().fit([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DTFTPredictor().fit([1.0, float("nan"), 2.0, 3.0])

    def test_not_fitted_raises(self):
        with pytest.raises(RuntimeError):
            DTFTPredictor().reconstruct([0])

    def test_reconstruction_matches_history(self):
        series = _periodic(2)
        p = DTFTPredictor(100).fit(series)
        recon = p.reconstruct(np.arange(series.size))
        err = np.abs(recon - series) / series.max()
        assert err.mean() < 0.03

    def test_extrapolation_tracks_periodic_signal(self):
        series = _periodic(4)
        day = int(86400 / 300)
        p = DTFTPredictor(100).fit(series[:3 * day])
        pred = p.predict(day)
        err = np.abs(pred - series[3 * day:]) / series.max()
        assert err.mean() < 0.05

    def test_predictions_non_negative(self):
        rng = np.random.default_rng(0)
        noisy = np.abs(rng.normal(1.0, 2.0, 512))
        p = DTFTPredictor(20).fit(noisy)
        assert np.all(p.predict(64) >= 0.0)

    def test_predict_requires_positive_steps(self):
        p = DTFTPredictor(10).fit(_periodic(1))
        with pytest.raises(ValueError):
            p.predict(0)

    def test_keeps_dc_component(self):
        constant = np.full(512, 42.0)
        p = DTFTPredictor(5).fit(constant)
        np.testing.assert_allclose(p.predict(10), 42.0, rtol=1e-6)

    def test_fewer_harmonics_than_requested_ok(self):
        p = DTFTPredictor(10_000).fit(_periodic(1))
        assert p.fitted

    def test_harmonic_count_controls_detail(self):
        series = _periodic(2)
        coarse = DTFTPredictor(3).fit(series).reconstruct(
            np.arange(series.size))
        fine = DTFTPredictor(100).fit(series).reconstruct(
            np.arange(series.size))
        err_coarse = np.abs(coarse - series).mean()
        err_fine = np.abs(fine - series).mean()
        assert err_fine < err_coarse


class TestRollingPredictor:
    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError):
            RollingPredictor().observe(-1.0)

    def test_rejects_nan_demand(self):
        with pytest.raises(ValueError):
            RollingPredictor().observe(float("nan"))

    def test_persistence_before_history(self):
        r = RollingPredictor(min_history=1000)
        r.observe(50.0)
        assert r.predict_next() == pytest.approx(55.0)  # last x 1.1

    def test_production_rule_floor_at_last_actual(self):
        series = _periodic(3)
        r = RollingPredictor(min_history=144)
        for v in series:
            r.observe(float(v))
        # Feed an artificial spike; the prediction cannot fall below it.
        r.observe(1e6)
        assert r.predict_next() >= 1e6

    def test_history_window_bounded(self):
        r = RollingPredictor(history_slots=10, min_history=4)
        for v in range(100):
            r.observe(float(v))
        assert r._bank.history(0).tolist() == [float(v) for v in range(90, 100)]

    def test_horizon_takes_window_max(self):
        series = _periodic(3)
        r = RollingPredictor(min_history=144)
        for v in series:
            r.observe(float(v))
        one = r.predict_next(1)
        two = r.predict_next(2)
        assert two >= one - 1e-9

    def test_rejects_zero_horizon(self):
        r = RollingPredictor()
        r.observe(1.0)
        with pytest.raises(ValueError):
            r.predict_next(0)

    def test_tracks_demand_model(self, small_demand):
        pair = small_demand.pairs[0]
        t = np.arange(0, 3 * 86400.0, 300.0)
        series = small_demand.rate_mbps(*pair, t)
        r = RollingPredictor(min_history=288)
        errs = []
        for i, v in enumerate(series):
            if i > 2 * 288:
                errs.append(abs(r.predict_next() - v))
            r.observe(float(v))
        assert np.mean(errs) / series.max() < 0.10
