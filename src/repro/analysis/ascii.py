"""Terminal-friendly plots: sparklines, CDF curves, and series panels.

The experiment runner works in headless environments, so the figures
that are *time series* or *CDFs* in the paper get a lightweight ASCII
rendering next to their numeric tables.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

_SPARK_LEVELS = " .:-=+*#%@"
#: Columns of a sparkline (and of a series panel), of a CDF plot's
#: area and of a full histogram bar.
SPARK_WIDTH = 60
CDF_WIDTH = 56
BAR_WIDTH = 40


def sparkline(values: Sequence[float], log_scale: bool = False) -> str:
    """One-line intensity plot of a series (resampled to `SPARK_WIDTH`
    columns)."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return ""
    width = SPARK_WIDTH
    if log_scale:
        v = np.log10(np.maximum(v, 1e-12))
    # Resample by block max (spikes must survive downsampling).
    idx = np.linspace(0, v.size, width + 1).astype(int)
    blocks = np.array([v[a:b].max() if b > a else v[min(a, v.size - 1)]
                       for a, b in zip(idx[:-1], idx[1:])])
    lo, hi = float(blocks.min()), float(blocks.max())
    if hi - lo < 1e-12:
        return _SPARK_LEVELS[1] * width
    norm = (blocks - lo) / (hi - lo)
    chars = (norm * (len(_SPARK_LEVELS) - 1)).round().astype(int)
    return "".join(_SPARK_LEVELS[c] for c in chars)


def series_panel(label: str, values: Sequence[float], unit: str = "",
                 log_scale: bool = False) -> List[str]:
    """A labelled sparkline with min/max annotations."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return [f"{label}: (no data)"]
    line = sparkline(v, log_scale)
    scale = " (log)" if log_scale else ""
    return [f"{label}{scale}",
            f"  [{line}]",
            f"  min {v.min():.4g}{unit}   max {v.max():.4g}{unit}   "
            f"mean {v.mean():.4g}{unit}"]


def ascii_cdf(values: Sequence[float], height: int = 10,
              label: Optional[str] = None) -> List[str]:
    """A small CDF plot: fraction of samples <= x, drawn with '#'."""
    x = np.sort(np.asarray(values, dtype=float))
    if x.size == 0:
        return ["(no data)"]
    if height < 2:
        raise ValueError("plot area too small")
    width = CDF_WIDTH
    lo, hi = float(x[0]), float(x[-1])
    span = hi - lo if hi > lo else 1.0
    # For each column, the CDF value at that x position.
    cols = lo + (np.arange(width) + 0.5) / width * span
    fractions = np.searchsorted(x, cols, side="right") / x.size
    rows: List[str] = []
    if label:
        rows.append(label)
    for level in range(height, 0, -1):
        threshold = level / height
        line = "".join("#" if f >= threshold - 1e-12 else " "
                       for f in fractions)
        marker = f"{threshold:4.2f}|"
        rows.append(marker + line)
    axis = f"    +{'-' * width}"
    rows.append(axis)
    pad = max(0, width - 24)
    rows.append(f"     {lo:<12.4g}{' ' * pad}{hi:>12.4g}")
    return rows


def histogram_bar(counts: Sequence[int],
                  labels: Sequence[str]) -> List[str]:
    """Horizontal bars for bucketed counts (e.g. Fig. 9, Fig. 18)."""
    c = np.asarray(counts, dtype=float)
    if c.size != len(labels):
        raise ValueError("one label per bucket required")
    peak = c.max() if c.size and c.max() > 0 else 1.0
    label_w = max(len(l) for l in labels)
    lines = []
    for value, label in zip(c, labels):
        bar = "#" * int(round(value / peak * BAR_WIDTH))
        lines.append(f"{label:<{label_w}}  {bar} {int(value)}")
    return lines
