"""Tests for the CSV exporter."""

import csv

import numpy as np
import pytest

from repro.experiments.export import _write, write_csv
from repro.experiments.fig05_demand import DemandFigure
from repro.experiments.fig12_prediction import PredictionFigure
from repro.experiments.fig16_casestudies import CaseStudies, CaseStudy
from repro.experiments.fig20_scaling import ScalingComparison
from repro.experiments.ablation_weights import WeightSweep


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestWriteHelper:
    def test_columns_round_trip(self, tmp_path):
        path = _write(tmp_path / "x.csv", {"a": [1, 2], "b": [3.5, 4.5]})
        rows = _read(path)
        assert rows[0] == ["a", "b"]
        assert rows[1] == ["1", "3.5"]

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _write(tmp_path / "x.csv", {"a": [1], "b": [1, 2]})

    def test_creates_directories(self, tmp_path):
        path = _write(tmp_path / "deep" / "dir" / "x.csv", {"a": [1]})
        assert path.exists()


class TestDispatch:
    def test_unregistered_type_exports_nothing(self, tmp_path):
        assert write_csv(object(), tmp_path, "data") == []
        assert list(tmp_path.iterdir()) == []

    def test_demand_figure(self, tmp_path):
        fig = DemandFigure(np.arange(3.0), np.array([1.0, 2, 3]),
                           ("A", "B"), np.array([4.0, 5, 6]), 60.0)
        paths = write_csv(fig, tmp_path)
        assert len(paths) == 1
        rows = _read(paths[0])
        assert rows[0] == ["time_s", "total_mbps", "example_pair_mbps"]
        assert len(rows) == 4

    def test_prediction_figure(self, tmp_path):
        fig = PredictionFigure(np.arange(2.0), np.array([1.0, 2]),
                               np.array([1.5, 2.5]), ("A", "B"))
        paths = write_csv(fig, tmp_path)
        assert _read(paths[0])[1] == ["0.0", "1.0", "1.5"]

    def test_case_studies(self, tmp_path):
        times = np.arange(4.0)
        case = CaseStudy("long-term", ("A", "B"), times,
                         {"XRON": np.ones(4),
                          "Internet only": np.full(4, 9.0)}, (0.0, 4.0))
        studies = CaseStudies(case, CaseStudy(
            "short-term", ("A", "B"), times, {"XRON": np.ones(4)},
            (0.0, 4.0)))
        paths = write_csv(studies, tmp_path)
        assert len(paths) == 2
        header = _read(paths[0])[0]
        assert "xron_latency_ms" in header
        assert "internet_only_latency_ms" in header

    def test_scaling_comparison_sorted(self, tmp_path):
        cmp_ = ScalingComparison({"Reactive": np.array([0.3, 0.1]),
                                  "Proactive": np.array([0.0, 0.0])})
        paths = write_csv(cmp_, tmp_path)
        rows = _read([p for p in paths if "reactive" in p.name][0])
        assert [r[0] for r in rows[1:]] == ["0.1", "0.3"]

    def test_weight_sweep(self, tmp_path):
        sweep = WeightSweep({0.0: (0.1, 100.0, 0.9),
                             120.0: (0.2, 20.0, 0.0)})
        paths = write_csv(sweep, tmp_path)
        rows = _read(paths[0])
        assert rows[0][0] == "cost_ms_per_fee"
        assert rows[1][0] == "0.0"


class TestEndToEnd:
    def test_real_experiment_exports(self, tmp_path, monkeypatch):
        from repro.experiments import fig05_demand
        monkeypatch.setattr(fig05_demand, "SLOT_S", 3600.0)
        result = fig05_demand.run()
        paths = write_csv(result, tmp_path)
        assert paths and paths[0].stat().st_size > 0
