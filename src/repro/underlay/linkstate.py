"""Per-link latency and loss processes.

Each directed (source region, destination region, link type) is a
deterministic function of virtual time built from

* a base one-way latency (great-circle fibre delay x per-direction stretch),
* a diurnal congestion term following the source region's local busy hours,
* stateless multiplicative jitter (hash noise, so any instant can be
  sampled without history),
* a pre-generated degradation-event timeline adding heavy-tailed latency
  and loss excursions.

The two directions of a pair are *independent* processes — different
stretch, different noise, different events — which produces the >60%
directional-asymmetry the paper measures (Fig. 8).

The parameters of every link live in one `LinkTable`
(`repro.underlay.snapshot`), which also evaluates the model; a
`LinkProcess` is the view of one link that `Underlay.link` returns.
"""

from __future__ import annotations

import enum
from typing import Tuple

import numpy as np

from repro.underlay.regions import Region

#: The paper's quality thresholds (§2.2): a link is "bad" while its
#: latency exceeds 400 ms or its loss rate 0.5%.
HIGH_LATENCY_MS = 400.0
HIGH_LOSS_RATE = 0.005


class LinkType(enum.Enum):
    """The two network tiers the overlay can use between any region pair."""

    INTERNET = "internet"
    PREMIUM = "premium"


def busy_factor(hours_local) -> np.ndarray:
    """Smooth 0..1 'how busy is the Internet here' diurnal curve.

    Low overnight, high through local working/evening hours (~09-22).
    """
    h = np.asarray(hours_local, dtype=float) % 24.0
    # A raised-cosine bump centred at 15:30 local, width ~14 h.
    x = (h - 15.5) / 14.0 * np.pi
    # `c * c`, not `c ** 2`: a NumPy scalar squares through libm `pow`,
    # an array by multiplying, and the two differ in the last bit now
    # and then — a scalar hour must read its array element's bits.
    c = np.cos(x)
    return np.where(np.abs(x) < np.pi / 2.0, c * c, 0.0)


class LinkProcess:
    """One directed link as a function of virtual time: a view of its
    row of the underlay's `LinkTable`, evaluated through the table's
    `series` for any shape of `t` whose instants ascend in C order
    (`Underlay.link` hands these out)."""

    __slots__ = ("src", "dst", "link_type", "_table", "_row")

    def __init__(self, table, row: Tuple[int, int, int], src: Region,
                 dst: Region, link_type: LinkType):
        self.src = src
        self.dst = dst
        self.link_type = link_type
        self._table = table
        self._row = row

    @property
    def timeline(self):
        """The link's degradation timeline (`Underlay.set_timeline`
        swaps it)."""
        return self._table.timelines[self._row]

    # ------------------------------------------------------------------ api
    def latency_ms(self, t) -> np.ndarray:
        """One-way latency in ms at time(s) `t` (seconds of virtual time)."""
        return self._state(t)[0]

    def loss_rate(self, t) -> np.ndarray:
        """Loss rate in [0, 1] at time(s) `t`."""
        return self._state(t)[1]

    def series(self, t0: float, t1: float,
               step: float = 1.0) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, latency_ms, loss_rate) sampled every `step` seconds."""
        if t1 <= t0:
            raise ValueError(f"empty window [{t0}, {t1})")
        times = np.arange(t0, t1, step)
        return (times, *self._state(times))

    def bad_fraction(self, t0: float, t1: float,
                     step: float = 1.0) -> Tuple[float, float]:
        """Fraction of time with high latency / high loss (Fig. 3's metric)."""
        __, lat, loss = self.series(t0, t1, step)
        return (float(np.mean(lat > HIGH_LATENCY_MS)),
                float(np.mean(loss > HIGH_LOSS_RATE)))

    def quality_series(self, t0: float, t1: float,
                       step: float = 1.0) -> np.ndarray:
        """Boolean good(False)/bad(True) classification over a window."""
        __, lat, loss = self.series(t0, t1, step)
        return (lat > HIGH_LATENCY_MS) | (loss > HIGH_LOSS_RATE)

    # -------------------------------------------------------------- internal
    def _state(self, t) -> Tuple[np.ndarray, np.ndarray]:
        """(latency_ms, loss_rate) at time(s) `t`, each of `t`'s shape
        (a scalar for a scalar)."""
        t = np.asarray(t, dtype=float)
        lat, loss = self._table.series(
            [(self.src.code, self.dst.code, self.link_type)], t.ravel())
        return lat[0].reshape(t.shape)[()], loss[0].reshape(t.shape)[()]
