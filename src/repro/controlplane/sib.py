"""Stream Information Base (SIB).

The SIB stores application-level information (§3): the per-pair demand
history the DTFT predictor consumes.  Because XRON is operated by the
conferencing provider itself, this application knowledge is available
without privacy leakage — it is the key enabler of proactive scaling.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.controlplane.prediction import RollingPredictor
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.regions import RegionPair


class StreamInformationBase:
    """Per-pair demand history and its predictors."""

    def __init__(self, codes: List[str], refit_every: int = 12,
                 min_history: int = 288):
        """One `RollingPredictor` per ordered pair, with the paper's
        hundred harmonics over two days of five-minute slots;
        `refit_every` and `min_history` (in epochs) suit it to shorter
        epoch cadences."""
        self.codes = list(codes)
        self._predictors: Dict[RegionPair, RollingPredictor] = {
            (a, b): RollingPredictor(refit_every=refit_every,
                                     min_history=min_history)
            for a in codes for b in codes if a != b}
        self._last_matrix: Optional[TrafficMatrix] = None

    # ------------------------------------------------------------------ api
    def record_epoch(self, matrix: TrafficMatrix) -> None:
        """Ingest the demand measured over the epoch that just ended."""
        for pair, demand in matrix.demands():
            predictor = self._predictors.get(pair)
            if predictor is None:
                raise KeyError(f"unknown pair {pair} in demand matrix")
            predictor.observe(demand)
        self._last_matrix = matrix

    def predicted_matrix(self) -> TrafficMatrix:
        """Five-minutes-ahead demand for every pair (with the >= last-actual
        production rule already applied by each predictor)."""
        if self._last_matrix is None:
            raise RuntimeError("no demand recorded yet")
        demand = {pair: predictor.predict_next()
                  for pair, predictor in self._predictors.items()}
        return TrafficMatrix(self.codes, demand)

    # ------------------------------------------------------------ checkpoint
    def export_state(self) -> Dict[str, object]:
        """JSON-serializable SIB state for controller checkpoints.

        Captures the learned state — per-pair demand histories, fitted
        predictor models, the last observed matrix — not configuration:
        a warm restart builds a fresh SIB with the deployment's config
        and imports only the state.
        """
        predictors = {f"{a}->{b}": self._predictors[(a, b)].export_state()
                      for (a, b) in sorted(self._predictors)}
        last = (None if self._last_matrix is None
                else {f"{a}->{b}": float(demand)
                      for (a, b), demand in self._last_matrix.items()})
        return {"predictors": predictors, "last_matrix": last}

    def import_state(self, doc: Dict[str, object]) -> None:
        """Restore state exported by `export_state`."""
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
