"""The demand path as it was before it became columnar: a
`TrafficMatrix` that is a dict keyed by ``(src, dst)`` and sorts its
entries on every `items` call, one `RollingPredictor` object per
ordered pair, and a SIB that walks them pair by pair.  Kept verbatim as
the oracle `repro.traffic.matrix.TrafficMatrix`,
`repro.controlplane.prediction.RollingPredictor` and
`repro.controlplane.sib.StreamInformationBase` are tested against
(`test_sib_differential.py`): predictions, `items` order and
checkpoint JSON must match byte for byte.  The Fourier fit itself is
the shared `DTFTPredictor`.  Nothing in `src/` imports this module.
"""

from __future__ import annotations

from typing import Dict, ItemsView, Iterator, List, Optional, Tuple

import numpy as np

from repro.controlplane.prediction import DTFTPredictor
from repro.underlay.regions import RegionPair


class TrafficMatrix:
    """Demand (Mbps) between every ordered region pair at one instant."""

    def __init__(self, codes: List[str], demand: Dict[RegionPair, float]):
        self.codes = list(codes)
        self._demand: Dict[RegionPair, float] = {}
        for pair, v in demand.items():
            a, b = pair
            if a == b:
                raise ValueError(f"self-pair {a}->{b} in traffic matrix")
            if v < 0:
                raise ValueError(f"negative demand {v} for {a}->{b}")
            self._demand[pair] = float(v)

    def get(self, src: str, dst: str) -> float:
        return self._demand.get((src, dst), 0.0)

    def items(self) -> Iterator[Tuple[RegionPair, float]]:
        return iter(sorted(self._demand.items()))

    def demands(self) -> ItemsView[RegionPair, float]:
        """`items` unsorted, for consumers indifferent to the order."""
        return self._demand.items()

    def total(self) -> float:
        return float(sum(self._demand.values()))

    def scaled(self, factor: float) -> "TrafficMatrix":
        """A copy with every entry multiplied by `factor`."""
        if factor < 0:
            raise ValueError(f"negative scale factor {factor}")
        return TrafficMatrix(self.codes, {k: v * factor
                                          for k, v in self._demand.items()})

    def __len__(self) -> int:
        return len(self._demand)


class RollingPredictor:
    """Online wrapper: observe demand each slot, predict the next slot.

    Applies the paper's empirical rule — prediction >= last actual — and
    refits the Fourier model periodically rather than every slot (fitting
    is cheap but not free at planetary scale).
    """

    def __init__(self, n_harmonics: int = 100, history_slots: int = 576,
                 refit_every: int = 12, min_history: int = 288):
        self.predictor = DTFTPredictor(n_harmonics)
        self.history_slots = int(history_slots)
        self.refit_every = int(refit_every)
        self.min_history = int(min_history)
        self._history: list = []
        self._since_fit = 0

    @property
    def last_actual(self) -> Optional[float]:
        return self._history[-1] if self._history else None

    def observe(self, demand: float) -> None:
        """Record the demand measured for the slot that just ended."""
        if demand < 0:
            raise ValueError(f"negative demand {demand}")
        self._history.append(float(demand))
        if len(self._history) > self.history_slots:
            del self._history[:len(self._history) - self.history_slots]
        self._since_fit += 1
        if (len(self._history) >= max(self.min_history, 4)
                and (not self.predictor.fitted
                     or self._since_fit >= self.refit_every)):
            self.predictor.fit(self._history)
            self._since_fit = 0

    def predict_next(self, horizon_slots: int = 1) -> float:
        """Predicted demand over the next `horizon_slots` (max across
        them); before enough history, the last actual demand x 1.1."""
        if horizon_slots < 1:
            raise ValueError(f"horizon must be >= 1 slot, got {horizon_slots}")
        last = self.last_actual if self.last_actual is not None else 0.0
        if not self.predictor.fitted:
            return last * 1.1
        raw = float(np.max(self.predictor.predict(
            self._since_fit + horizon_slots)[-horizon_slots:]))
        # Empirical production rule: never predict below the last actual.
        return max(raw, last)

    def export_state(self) -> dict:
        return {"history": list(self._history),
                "since_fit": self._since_fit,
                "model": self.predictor.export_state()}

    def import_state(self, doc: dict) -> None:
        self._history = [float(v) for v in doc["history"]]
        self._since_fit = int(doc["since_fit"])
        self.predictor.import_state(doc["model"])


class StreamInformationBase:
    """Per-pair demand history and its predictors."""

    def __init__(self, codes: List[str], refit_every: int = 12,
                 min_history: int = 288):
        self.codes = list(codes)
        self._predictors: Dict[RegionPair, RollingPredictor] = {
            (a, b): RollingPredictor(refit_every=refit_every,
                                     min_history=min_history)
            for a in codes for b in codes if a != b}
        self._last_matrix: Optional[TrafficMatrix] = None

    def record_epoch(self, matrix: TrafficMatrix) -> None:
        """Ingest the demand measured over the epoch that just ended."""
        for pair, demand in matrix.demands():
            predictor = self._predictors.get(pair)
            if predictor is None:
                raise KeyError(f"unknown pair {pair} in demand matrix")
            predictor.observe(demand)
        self._last_matrix = matrix

    def predicted_matrix(self) -> TrafficMatrix:
        """Five-minutes-ahead demand for every pair."""
        if self._last_matrix is None:
            raise RuntimeError("no demand recorded yet")
        demand = {pair: predictor.predict_next()
                  for pair, predictor in self._predictors.items()}
        return TrafficMatrix(self.codes, demand)

    def export_state(self) -> Dict[str, object]:
        predictors = {f"{a}->{b}": self._predictors[(a, b)].export_state()
                      for (a, b) in sorted(self._predictors)}
        last = (None if self._last_matrix is None
                else {f"{a}->{b}": float(demand)
                      for (a, b), demand in self._last_matrix.items()})
        return {"predictors": predictors, "last_matrix": last}

    def import_state(self, doc: Dict[str, object]) -> None:
        for key, state in doc["predictors"].items():
            a, b = key.split("->")
            predictor = self._predictors.get((a, b))
            if predictor is None:
                raise KeyError(f"unknown pair {(a, b)} in SIB checkpoint")
            predictor.import_state(state)
        last = doc["last_matrix"]
        if last is not None:
            demand = {}
            for key, value in last.items():
                a, b = key.split("->")
                demand[(a, b)] = float(value)
            self._last_matrix = TrafficMatrix(self.codes, demand)
