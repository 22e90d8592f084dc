"""Tests for the weighted percentiles the grid engine reports."""

import warnings

import numpy as np
import pytest

from repro.analysis.stats import weighted_percentiles


class TestWeightedPercentiles:
    def test_equal_weights_match_unweighted_median(self):
        values = np.arange(101.0)
        w = np.ones(101)
        out = weighted_percentiles(values, w, [50.0])
        assert out[0] == pytest.approx(50.0, abs=1.0)

    def test_heavy_weight_dominates(self):
        values = np.array([1.0, 100.0])
        w = np.array([1.0, 99.0])
        out = weighted_percentiles(values, w, [50.0])
        assert out[0] == pytest.approx(100.0, abs=3.0)

    def test_result_bounded_by_values(self):
        values = np.array([5.0, 7.0, 9.0])
        w = np.array([1.0, 2.0, 3.0])
        out = weighted_percentiles(values, w, [0.0, 100.0])
        assert out[0] >= 5.0 and out[1] <= 9.0

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            weighted_percentiles([1.0], [1.0, 2.0], [50.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_percentiles([1.0, 2.0], [1.0, -1.0], [50.0])

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_percentiles([1.0, 2.0], [0.0, 0.0], [50.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_percentiles([], [], [50.0])


    @pytest.mark.parametrize("weights", [[1.0, np.nan, 1.0],
                                         [1.0, np.inf, 1.0],
                                         [np.inf, -np.inf, 1.0]],
                             ids=["nan", "inf", "inf-minus-inf"])
    def test_nan_and_infinite_weights_rejected(self, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                weighted_percentiles([1.0, 2.0, 3.0], weights, [50.0])

    def test_nan_values_rejected(self):
        for values in ([1.0, np.nan, 3.0], [np.nan, np.nan, np.nan],
                       [np.inf, np.nan, -np.inf]):
            with pytest.raises(ValueError):
                weighted_percentiles(values, np.ones(3), [50.0, 99.0])

    def test_infinite_values_stay_legal(self):
        """An unreachable path is an infinite latency, and counts."""
        out = weighted_percentiles([1.0, 2.0, np.inf], np.ones(3),
                                   [0.0, 50.0])
        np.testing.assert_array_equal(out, [1.0, 2.0])
