"""Tests for the ASCII plotting helpers."""

import numpy as np
import pytest

from repro.analysis import ascii
from repro.analysis.ascii import (ascii_cdf, histogram_bar, series_panel,
                                  sparkline)


@pytest.fixture
def widths(monkeypatch):
    """Sets the plot widths (module constants) for one test."""
    def set_widths(**values):
        for name, value in values.items():
            monkeypatch.setattr(ascii, name, value)
    return set_widths


class TestSparkline:
    def test_width(self, widths):
        assert len(sparkline(np.sin(np.linspace(0, 7, 500)))) == 60
        widths(SPARK_WIDTH=40)
        assert len(sparkline(np.sin(np.linspace(0, 7, 500)))) == 40

    def test_constant_series_is_flat(self, widths):
        widths(SPARK_WIDTH=20)
        line = sparkline([5.0] * 100)
        assert len(set(line)) == 1

    def test_empty(self):
        assert sparkline([]) == ""

    def test_invalid_width(self):
        """Every plot width is positive (a CDF needs two columns)."""
        assert ascii.SPARK_WIDTH >= 1
        assert ascii.CDF_WIDTH >= 2
        assert ascii.BAR_WIDTH >= 1

    def test_peak_survives_downsampling(self, widths):
        widths(SPARK_WIDTH=10)
        v = np.ones(1000)
        v[500] = 100.0
        line = sparkline(v)
        assert "@" in line

    def test_monotone_series_monotone_chars(self, widths):
        widths(SPARK_WIDTH=10)
        line = sparkline(np.arange(100.0))
        levels = [" .:-=+*#%@".index(c) for c in line]
        assert levels == sorted(levels)

    def test_log_scale_compresses_spikes(self, widths):
        widths(SPARK_WIDTH=9)
        v = np.concatenate([np.full(30, 1.0), np.full(30, 100.0),
                            np.full(30, 1e6)])
        lin = sparkline(v)
        log = sparkline(v, log_scale=True)
        # Linearly, the middle decade is indistinguishable from the
        # bottom; on a log scale it sits halfway up.
        assert lin[3] == lin[0]
        assert log[3] != log[0]


class TestSeriesPanel:
    def test_contains_stats(self):
        lines = series_panel("demand", [1.0, 2.0, 3.0], unit=" Mbps")
        assert any("min 1" in l for l in lines)
        assert any("max 3" in l for l in lines)

    def test_empty(self):
        assert series_panel("x", []) == ["x: (no data)"]


class TestAsciiCdf:
    def test_shape(self, widths):
        widths(CDF_WIDTH=30)
        rows = ascii_cdf(np.random.default_rng(0).normal(0, 1, 500),
                         height=5, label="t")
        assert rows[0] == "t"
        assert len(rows) == 1 + 5 + 2  # label + levels + axis + ticks
        assert rows[-2] == "    +" + "-" * 30

    def test_full_level_row_is_solid_on_uniform(self, widths):
        widths(CDF_WIDTH=20)
        # For the lowest threshold row most columns are filled.
        rows = ascii_cdf(np.linspace(0, 1, 1000), height=4)
        bottom = rows[-3]
        assert bottom.count("#") >= 15

    def test_empty(self):
        assert ascii_cdf([]) == ["(no data)"]

    def test_too_small_plot_rejected(self):
        with pytest.raises(ValueError):
            ascii_cdf([1.0, 2.0], height=1)

    def test_narrow_plot_has_no_middle_label(self, widths):
        widths(CDF_WIDTH=10)
        rows = ascii_cdf([1.0, 2.0], height=3)
        assert rows[-1].strip().startswith("1")


class TestHistogramBar:
    def test_bars_scale_with_counts(self, widths):
        widths(BAR_WIDTH=10)
        lines = histogram_bar([10, 5, 0], ["a", "b", "c"])
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5
        assert lines[2].count("#") == 0

    def test_counts_rendered(self, widths):
        widths(BAR_WIDTH=5)
        lines = histogram_bar([7], ["bucket"])
        assert lines[0].endswith("7")

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            histogram_bar([1, 2], ["only-one"])
