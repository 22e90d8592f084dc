"""Figure 12: DTFT traffic prediction vs ground truth.

Paper target: the prediction tracks the real demand tightly over a week
and (with the >= last-actual rule) 'efficiently covers' the real demand —
under-prediction is rare and small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.controlplane.prediction import RollingPredictor
from repro.analysis.ascii import series_panel
from repro.experiments.base import format_table, standard_demand


@dataclass
class PredictionFigure:
    times: np.ndarray
    actual: np.ndarray
    predicted: np.ndarray
    pair: Tuple[str, str]

    @property
    def mean_abs_error_of_peak(self) -> float:
        return float(np.mean(np.abs(self.predicted - self.actual))
                     / self.actual.max())

    @property
    def underprediction_fraction(self) -> float:
        """Fraction of slots where the prediction fell below the demand."""
        return float(np.mean(self.predicted < self.actual))

    @property
    def correlation(self) -> float:
        return float(np.corrcoef(self.predicted, self.actual)[0, 1])

    def lines(self) -> List[str]:
        rows = [
            ["pair", f"{self.pair[0]}->{self.pair[1]}"],
            ["mean |error| (fraction of peak)", self.mean_abs_error_of_peak],
            ["slots under-predicted", self.underprediction_fraction],
            ["correlation", self.correlation],
        ]
        lines = format_table(["metric", "value"], rows,
                             title="Fig. 12 — DTFT prediction vs ground truth"
                                   " (one week, five-minute slots)")
        lines.append("")
        lines += series_panel("ground truth", self.actual, unit=" Mbps")
        lines += series_panel("prediction", self.predicted, unit=" Mbps")
        return lines


#: The evaluated span, days (one week).
EVAL_DAYS = 7


#: The demand slot (seconds) and the days the predictor warms up on.
SLOT_S = 300.0
TRAIN_DAYS = 14


def run() -> PredictionFigure:
    """Warm the rolling predictor on `TRAIN_DAYS`, evaluate on
    `EVAL_DAYS`."""
    slot_s, train_days = SLOT_S, TRAIN_DAYS
    m = standard_demand()
    pair = max(m.pairs, key=lambda p: m.pair_scale(*p))
    total_days = train_days + EVAL_DAYS
    times = np.arange(0.0, total_days * 86400.0, slot_s)
    series = m.rate_mbps(pair[0], pair[1], times)

    predictor = RollingPredictor()
    eval_start = int(train_days * 86400.0 / slot_s)
    predicted, actual, eval_times = [], [], []
    for i, value in enumerate(series):
        if i >= eval_start:
            predicted.append(predictor.predict_next())
            actual.append(float(value))
            eval_times.append(float(times[i]))
        predictor.observe(float(value))
    return PredictionFigure(np.array(eval_times), np.array(actual),
                            np.array(predicted), pair)
