"""Stream Information Base (SIB).

The SIB stores application-level information (§3): the per-pair demand
history the DTFT predictor consumes.  Because XRON is operated by the
conferencing provider itself, this application knowledge is available
without privacy leakage — it is the key enabler of proactive scaling.

Histories are columnar: one `PredictorBank` row per ordered pair, in
the fixed pair order of the SIB's region codes.  Recording a matrix is
one scatter of its values into the rows of its pairs (a matrix may
leave pairs out, which then fall behind); a prediction is one array
over every pair, built into a `TrafficMatrix` that shares the SIB's
pairs tuple, so its sort order is worked out once.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.controlplane.prediction import PredictorBank
from repro.traffic.matrix import TrafficMatrix


class StreamInformationBase:
    """Per-pair demand history and its predictors."""

    def __init__(self, codes: List[str], refit_every: int = 12,
                 min_history: int = 288):
        """One bank row per ordered pair, with the paper's hundred
        harmonics over two days of five-minute slots; `refit_every` and
        `min_history` (in epochs) suit it to shorter epoch cadences."""
        self.codes = list(codes)
        self._pairs = tuple((a, b) for a in codes for b in codes if a != b)
        #: Bank row of each cell ``index(a) * N + index(b)`` of the N x N
        #: grid over `codes` (-1 on the diagonal): `_pairs` is the grid's
        #: off-diagonal cells in row-major order.
        n = len(self.codes)
        self._row = np.full(n * n, -1, dtype=np.intp)
        self._row[~np.eye(n, dtype=bool).ravel()] = np.arange(len(self._pairs))
        self._predictors = PredictorBank(len(self._pairs),
                                         refit_every=refit_every,
                                         min_history=min_history)
        self._last_matrix: Optional[TrafficMatrix] = None

    # ------------------------------------------------------------------ api
    def record_epoch(self, matrix: TrafficMatrix) -> None:
        """Ingest the demand measured over the epoch that just ended.
        A pair with a region outside the SIB's is a `KeyError`."""
        self._predictors.observe(self._row[matrix.rows(self.codes)],
                                 matrix.values)
        self._last_matrix = matrix

    def predicted_matrix(self) -> TrafficMatrix:
        """Five-minutes-ahead demand for every pair (with the >= last-actual
        production rule already applied)."""
        if self._last_matrix is None:
            raise RuntimeError("no demand recorded yet")
        return TrafficMatrix.from_arrays(self.codes, self._pairs,
                                         self._predictors.predict())

    # ------------------------------------------------------------ checkpoint
    def export_state(self) -> Dict[str, object]:
        """JSON-serializable SIB state for controller checkpoints.

        Captures the learned state — per-pair demand histories, fitted
        predictor models, the last observed matrix — not configuration:
        a warm restart builds a fresh SIB with the deployment's config
        and imports only the state.
        """
        pairs = self._pairs
        predictors = {f"{pairs[k][0]}->{pairs[k][1]}":
                      self._predictors.export_row(k)
                      for k in sorted(range(len(pairs)),
                                      key=pairs.__getitem__)}
        last = (None if self._last_matrix is None
                else {f"{a}->{b}": float(demand)
                      for (a, b), demand in self._last_matrix.items()})
        return {"predictors": predictors, "last_matrix": last}

    def import_state(self, doc: Dict[str, object]) -> None:
        """Restore state exported by `export_state`."""
        row = dict(zip(self._pairs, range(len(self._pairs))))
        for key, state in doc["predictors"].items():
            a, b = key.split("->")
            if (a, b) not in row:
                raise KeyError(f"unknown pair {(a, b)} in SIB checkpoint")
            self._predictors.import_row(row[(a, b)], state)
        last = doc["last_matrix"]
        if last is not None:
            demand = {}
            for key, value in last.items():
                a, b = key.split("->")
                demand[(a, b)] = float(value)
            self._last_matrix = TrafficMatrix(self.codes, demand)
