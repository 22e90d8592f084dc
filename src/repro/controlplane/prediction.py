"""Traffic demand prediction (§5.1).

The paper's observation: demand has a strong three-peak daily pattern with
weekly structure, so a Discrete-Time Fourier Transform fit works well.
The predictor transforms the demand history to the frequency domain, keeps
the one hundred most prominent harmonics (filtering random jitter), and
transforms back to extrapolate the next timestamps.

One empirical production rule is layered on top: the prediction is never
below the last observed demand, which caps the risk of scaling down into
a surge.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.obs import telemetry as _telemetry

_TEL = _telemetry()

#: The paper's model: the hundred most prominent harmonics over two
#: days of five-minute slots.  The window is deliberately short: with
#: the hundred most prominent harmonics, a two-day window resolves
#: ~30-minute features (recurring meeting-block surges), which a
#: two-week window cannot.
N_HARMONICS = 100
HISTORY_SLOTS = 576
#: Slots between refits of a `RollingPredictor`'s model (the SIB's
#: banks take theirs from `sib_params`).
REFIT_EVERY = 12


class DTFTPredictor:
    """Fit a truncated Fourier series to a demand history and extrapolate."""

    def __init__(self, n_harmonics: int):
        if n_harmonics < 1:
            raise ValueError(f"need at least one harmonic, got {n_harmonics}")
        self.n_harmonics = int(n_harmonics)
        self._coeffs: Optional[np.ndarray] = None
        self._freq_idx: Optional[np.ndarray] = None
        self._n: int = 0

    @property
    def fitted(self) -> bool:
        return self._coeffs is not None

    def fit(self, history: Sequence[float]) -> "DTFTPredictor":
        """Fit to a uniformly-sampled demand history.

        Keeps the DC component plus the `n_harmonics` largest-magnitude
        positive-frequency harmonics.
        """
        x = np.asarray(history, dtype=float)
        if x.ndim != 1 or x.size < 4:
            raise ValueError("history must be a 1-D series of length >= 4")
        if np.any(~np.isfinite(x)):
            raise ValueError("history contains non-finite values")
        spectrum = np.fft.rfft(x)
        n_keep = min(self.n_harmonics, spectrum.size - 1)
        # Always keep DC (index 0); choose the rest by magnitude.
        magnitudes = np.abs(spectrum[1:])
        keep = np.argsort(magnitudes)[::-1][:n_keep] + 1
        idx = np.concatenate([[0], np.sort(keep)])
        self._freq_idx = idx
        self._coeffs = spectrum[idx]
        self._n = x.size
        return self

    def reconstruct(self, at_indices) -> np.ndarray:
        """Evaluate the truncated series at (possibly fractional) indices.

        Indices past the history length extrapolate by periodic extension,
        which is exactly the Fourier model's assumption.
        """
        if not self.fitted:
            raise RuntimeError("predictor is not fitted")
        n = np.asarray(at_indices, dtype=float)
        # Real-signal reconstruction from the kept rFFT bins.
        angles = 2.0j * np.pi * np.outer(n, self._freq_idx) / self._n
        weights = np.where(
            (self._freq_idx == 0) | (self._freq_idx == self._n // 2
                                     if self._n % 2 == 0 else False),
            1.0, 2.0)
        values = np.real(np.exp(angles) @ (self._coeffs * weights)) / self._n
        return np.maximum(values, 0.0)

    def predict(self, steps_ahead: int = 1) -> np.ndarray:
        """Extrapolate `steps_ahead` values beyond the fitted history."""
        if steps_ahead < 1:
            raise ValueError(f"steps_ahead must be >= 1, got {steps_ahead}")
        idx = self._n + np.arange(steps_ahead)
        return self.reconstruct(idx)

    # ------------------------------------------------------------ checkpoint
    def export_state(self) -> Optional[dict]:
        """JSON-serializable fit state (None when unfitted)."""
        if not self.fitted:
            return None
        return {"coeffs_re": [float(v) for v in self._coeffs.real],
                "coeffs_im": [float(v) for v in self._coeffs.imag],
                "freq_idx": [int(v) for v in self._freq_idx],
                "n": int(self._n)}

    def import_state(self, doc: Optional[dict]) -> None:
        """Restore a fit exported by `export_state`."""
        if doc is None:
            self._coeffs = None
            self._freq_idx = None
            self._n = 0
            return
        self._coeffs = (np.asarray(doc["coeffs_re"], dtype=float)
                        + 1j * np.asarray(doc["coeffs_im"], dtype=float))
        self._freq_idx = np.asarray(doc["freq_idx"], dtype=int)
        self._n = int(doc["n"])


class PredictorBank:
    """Online DTFT forecasts for a bank of demand series (rows).

    Each row observes its demand once per slot, refits its Fourier
    model periodically rather than every slot (fitting is cheap but not
    free at planetary scale) and predicts with the paper's empirical
    rule: never below the last actual.  Histories are one array whose
    width grows to `history_slots`, each row a ring with its own start,
    length and slots since its fit, so rows may be ragged (a partial
    matrix or a checkpoint leaves some behind).  A row without a fit
    predicts its last actual demand x 1.1 (a persistence forecast with
    a safety margin) — all such rows in one array operation; fitting
    and fitted prediction go row by row through `DTFTPredictor`.
    """

    def __init__(self, rows: int, refit_every: int = 12,
                 min_history: int = 288):
        # Defaults: 5-minute slots, refit hourly, need one day of data
        # before trusting the model.
        self.n_harmonics = N_HARMONICS
        self.history_slots = HISTORY_SLOTS
        self.refit_every = int(refit_every)
        self.min_history = int(min_history)
        self._history = np.zeros((rows, 0))
        self._start = np.zeros(rows, dtype=np.intp)
        self._length = np.zeros(rows, dtype=np.intp)
        self._since_fit = np.zeros(rows, dtype=np.intp)
        #: Each row's newest demand, 0.0 before its first.
        self._last = np.zeros(rows)
        #: The fitted rows' models, and which rows have one (as a mask).
        self._models: Dict[int, DTFTPredictor] = {}
        self._fitted = np.zeros(rows, dtype=bool)

    def observe(self, rows: np.ndarray, demand) -> None:
        """Record ``demand[k]``, measured over the slot that just ended,
        for row ``rows[k]`` (rows distinct)."""
        demand = np.asarray(demand, dtype=float)
        if len(demand) and not demand.min() >= 0:  # NaN fails too
            raise ValueError(
                f"negative demand {demand[np.argmax(~(demand >= 0))]}")
        if not len(rows):
            return
        length = self._length[rows]
        if self._history.shape[1] < self.history_slots:
            self._reserve(int(length.max()) + 1)
        width = self._history.shape[1]
        slot = self._start[rows] + length
        slot %= width
        self._history[rows, slot] = demand
        self._last[rows] = demand
        if width == self.history_slots:  # a full ring drops its oldest
            full = length == width
            self._start[rows[full]] = (slot[full] + 1) % width
        self._length[rows] = length = np.minimum(length + 1, width)
        since_fit = self._since_fit[rows] + 1
        self._since_fit[rows] = since_fit
        due = rows[(length >= max(self.min_history, 4))
                   & (~self._fitted[rows] | (since_fit >= self.refit_every))]
        for row in due.tolist():
            model = self._models.get(row)
            if model is None:
                model = self._models[row] = DTFTPredictor(self.n_harmonics)
            model.fit(self.history(row))
            self._since_fit[row] = 0
            self._fitted[row] = True
            if _TEL.enabled:
                _TEL.counter("prediction.refits").inc()

    def predict(self, horizon_slots: int = 1) -> np.ndarray:
        """Each row's predicted demand over the next `horizon_slots`
        (the max across them: scaling consumers pass the provisioning
        window, and the prediction must cover its peak)."""
        if horizon_slots < 1:
            raise ValueError(f"horizon must be >= 1 slot, got {horizon_slots}")
        last = self._last
        predicted = last * 1.1
        for row, model in self._models.items():
            raw = float(np.max(model.predict(
                int(self._since_fit[row]) + horizon_slots)[-horizon_slots:]))
            # Empirical production rule: never predict below the last actual.
            predicted[row] = max(raw, float(last[row]))
        return predicted

    def history(self, row: int) -> np.ndarray:
        """Row `row`'s history, oldest first."""
        start, length = int(self._start[row]), int(self._length[row])
        ring = self._history[row]
        return np.concatenate((ring[start:], ring[:start]))[:length]

    def _reserve(self, width: int) -> None:
        """Widen the history array to hold `width` slots (at most
        `history_slots`); rings start at 0 until the array is full
        width, so widening is a prefix copy."""
        width = min(width, self.history_slots)
        have = self._history.shape[1]
        if width > have:
            grown = np.zeros((len(self._length),
                              min(max(width, 2 * have), self.history_slots)))
            grown[:, :have] = self._history
            self._history = grown

    # ------------------------------------------------------------ checkpoint
    def export_row(self, row: int) -> dict:
        """JSON-serializable rolling state of one row (history + fit).

        Configuration (harmonics, window sizes) is NOT included: a warm
        restart reconstructs the bank with the deployment's own config
        and loads only the learned state into it.
        """
        model = self._models.get(row)
        return {"history": self.history(row).tolist(),
                "since_fit": int(self._since_fit[row]),
                "model": None if model is None else model.export_state()}

    def import_row(self, row: int, doc: dict) -> None:
        """Restore one row's state exported by `export_row`; a history
        longer than `history_slots` keeps its newest values, as the
        next observation would."""
        history = [float(v) for v in doc["history"]][-self.history_slots:]
        self._reserve(len(history))
        self._history[row, :len(history)] = history
        self._start[row] = 0
        self._length[row] = len(history)
        self._last[row] = history[-1] if history else 0.0
        self._since_fit[row] = int(doc["since_fit"])
        if doc["model"] is None:
            self._models.pop(row, None)
            self._fitted[row] = False
        else:
            model = DTFTPredictor(self.n_harmonics)
            model.import_state(doc["model"])
            self._models[row] = model
            self._fitted[row] = True


#: The one row of a `RollingPredictor`.
_ONE_ROW = np.zeros(1, dtype=np.intp)


class RollingPredictor:
    """One demand series: the one-row `PredictorBank`, scalar in and
    out — observe demand each slot, predict the next slot(s)."""

    def __init__(self, min_history: int = 288):
        self._bank = PredictorBank(1, REFIT_EVERY, min_history)

    def observe(self, demand: float) -> None:
        """Record the demand measured for the slot that just ended."""
        self._bank.observe(_ONE_ROW, (demand,))

    def predict_next(self, horizon_slots: int = 1) -> float:
        """Predicted demand over the next `horizon_slots` (max across
        them); see `PredictorBank.predict`."""
        return float(self._bank.predict(horizon_slots)[0])
