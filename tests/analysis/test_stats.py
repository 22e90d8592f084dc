"""Tests for the weighted percentiles the grid engine reports."""

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

