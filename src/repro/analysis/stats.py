"""Weighted percentiles."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def weighted_percentiles(values: Sequence[float], weights: Sequence[float],
                         percentiles: Sequence[float]) -> np.ndarray:
    """Percentiles of `values` weighted by `weights`.

    Values may be infinite (an unreachable path) but not NaN; weights
    must be finite and non-negative, and not all zero.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ValueError("values and weights must align")
    if v.size == 0:
        raise ValueError("no samples")
    if not w.min() >= 0:
        raise ValueError("negative or NaN weights")
    order = np.argsort(v)
    v, w = v[order], w[order]
    if np.isnan(v[-1]):  # NaN sorts last
        raise ValueError("NaN values")
    cum = np.cumsum(w)
    if not cum[-1] < np.inf:
        raise ValueError("infinite total weight")
    if cum[-1] <= 0:
        raise ValueError("zero total weight")
    # Midpoint rule: each sample sits at the centre of its weight span.
    positions = (cum - 0.5 * w) / cum[-1]
    return np.interp(np.asarray(percentiles, dtype=float) / 100.0,
                     positions, v)
