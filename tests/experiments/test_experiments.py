"""Smoke tests for every experiment at tiny scale.

Each experiment must run end to end, produce printable lines, and satisfy
the loosest form of its paper target (direction/ordering).
"""

import numpy as np
import pytest

from repro.experiments import (fig01_02_linkstates, fig03_badtime,
                               fig04_pricing, fig05_demand, fig07_similarity,
                               fig08_asymmetry, fig09_degradations,
                               fig11_weekly, fig12_prediction, fig13_qoe,
                               fig14_15_badcases, fig17_cost,
                               fig18_fast_reaction, fig19_asymmetric,
                               fig20_scaling, tab23_network)


def _has_lines(result):
    lines = result.lines()
    assert lines and all(isinstance(l, str) for l in lines)


class TestMotivationFigures:
    def test_fig01_02(self, monkeypatch):
        monkeypatch.setattr(fig01_02_linkstates, "STEP_S", 120.0)
        r = fig01_02_linkstates.run()
        _has_lines(r)
        assert (r.avg_latency_premium.mean()
                < r.avg_latency_internet.mean())
        assert r.max_example_latency_ms > 1000.0

    def test_fig03(self, monkeypatch):
        monkeypatch.setattr(fig03_badtime, "STEP_S", 60.0)
        r = fig03_badtime.run()
        _has_lines(r)
        assert r.premium_high_latency.max() < 0.02
        assert r.internet_high_loss.max() > 0.1

    def test_fig04(self):
        r = fig04_pricing.run()
        _has_lines(r)
        assert 6.0 < r.median_ratio < 9.0
        assert r.max_ratio < 11.5

    def test_fig05(self, monkeypatch):
        monkeypatch.setattr(fig05_demand, "SLOT_S", 300.0)
        r = fig05_demand.run()
        _has_lines(r)
        assert r.total_peak_ratio > 20
        assert r.example_peak_ratio > r.total_peak_ratio

    def test_fig07(self, monkeypatch):
        monkeypatch.setattr(fig07_similarity, "STEP_S", 10.0)
        monkeypatch.setattr(fig07_similarity, "MAX_PAIRS", 8)
        r = fig07_similarity.run(window_s=3600.0)
        _has_lines(r)
        assert r.min_similarity > 0.5
        assert r.probe_reduction_factor == 8.0

    def test_fig08(self, monkeypatch):
        monkeypatch.setattr(fig08_asymmetry, "STEP_S", 30.0)
        monkeypatch.setattr(fig08_asymmetry, "WINDOW_S", 14400.0)
        r = fig08_asymmetry.run()
        _has_lines(r)
        assert r.mean_fraction > 0.3  # paper: >60% for the example pair

    def test_fig09(self):
        r = fig09_degradations.run(window_s=86400.0)
        _has_lines(r)
        assert r.internet_short_long_ratio > 20
        assert sum(r.internet) > sum(r.premium)

    def test_fig11(self, monkeypatch):
        monkeypatch.setattr(fig11_weekly, "SLOT_S", 600.0)
        r = fig11_weekly.run()
        _has_lines(r)
        peaks = np.array(r.daily_peak_hours())
        assert peaks.shape[1] == 3
        assert r.weekend_weekday_ratio < 0.5

    def test_fig12(self, monkeypatch):
        monkeypatch.setattr(fig12_prediction, "EVAL_DAYS", 1)
        monkeypatch.setattr(fig12_prediction, "TRAIN_DAYS", 3)
        r = fig12_prediction.run()
        _has_lines(r)
        assert r.correlation > 0.7
        assert r.mean_abs_error_of_peak < 0.15


class TestEvaluationExperiments:
    #: A short fig13 window, for fig13 and (through it) fig14/15.
    QOE_KWARGS = dict(days=0.1, epoch_s=600.0, eval_step_s=30.0,
                      start_hour=6.0)

    @pytest.fixture(scope="class")
    def qoe_cmp(self):
        return fig13_qoe.run(**self.QOE_KWARGS)

    def test_fig13(self, qoe_cmp):
        _has_lines(qoe_cmp)
        assert qoe_cmp.reduction_vs("stall_ratio") < 0.0
        assert set(qoe_cmp.summaries) == {"XRON", "Internet only",
                                          "Premium only"}

    def test_fig14_15_reuses_run(self, qoe_cmp):
        r = fig14_15_badcases.run(**self.QOE_KWARGS)
        _has_lines(r)
        assert r.comparison.summaries == qoe_cmp.summaries
        assert set(r.stall_buckets()) == set(qoe_cmp.summaries)

    def test_tab23(self, monkeypatch):
        monkeypatch.setattr(tab23_network, "EVAL_STEP_S", 10.0)
        r = tab23_network.run(hours=0.5)
        _has_lines(r)
        assert r.improvement("99.9%") > 1.0
        assert (r.latency_rows["Premium only"]["average"]
                < r.latency_rows["Internet only"]["average"])

    def test_fig18(self, monkeypatch):
        monkeypatch.setattr(fig18_fast_reaction, "EVAL_STEP_S", 5.0)
        r = fig18_fast_reaction.run(hours=0.5)
        _has_lines(r)
        assert sum(r.counts["XRON"]) <= sum(r.counts["XRON-Basic"])

    def test_fig19(self):
        r = fig19_asymmetric.run(n_epochs=2)
        _has_lines(r)
        assert 0.0 <= r.fraction_improved <= 1.0
        assert np.all(r.speedups > 0)

    def test_fig20(self, monkeypatch):
        monkeypatch.setattr(fig20_scaling, "WARMUP_DAYS", 1)
        monkeypatch.setattr(fig20_scaling, "DAYS", 4)
        r = fig20_scaling.run()
        _has_lines(r)
        assert r.mean_error("Proactive") <= r.mean_error("Reactive")

    def test_fig17(self, monkeypatch):
        monkeypatch.setattr(fig17_cost, "SCALING_DAYS", 3)
        monkeypatch.setattr(fig17_cost, "EVAL_STEP_S", 60.0)
        r = fig17_cost.run(hours=1.0)
        _has_lines(r)
        assert 1.0 <= r.normal_hop_mean < 2.0
        assert r.total_cost["Premium only"] > r.total_cost["XRON"]
        assert r.total_cost["XRON"] > r.total_cost["Internet only"]
