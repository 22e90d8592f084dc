"""Traffic matrices: a demand snapshot for one control epoch.

A `TrafficMatrix` is columnar: the region `codes`, an immutable tuple
of ordered `pairs` and a read-only `values` vector (Mbps, in `pairs`
order).  `from_model`, `scaled` and the SIB build one straight from
arrays; the dict-shaped API (`get`, `items`, `total`, ``len``) is
derived from the columns.

What depends on the pairs alone is worked out once per pairs tuple and
memoised: the self-pair and duplicate checks, the sorted-pairs
permutation `items` walks (`order`) and each pair's position.  Matrices
that share their pairs — every `from_model` of one demand model, its
`scaled` copies, every prediction of one SIB — therefore sort once per
deployment, not once per epoch.  `rows` (each pair's cell of the
N x N grid over some region codes) is memoised per (codes, pairs).
The demand check is one array test, and it rejects NaN: a value is
accepted only if ``v >= 0``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.traffic.demand import DemandModel
from repro.underlay.regions import RegionPair

Pairs = Tuple[RegionPair, ...]


class _Layout(NamedTuple):
    """What a pairs tuple determines, whatever the values."""

    #: Positions in ascending pair order (read-only).
    order: np.ndarray
    sorted_pairs: Pairs
    position: Dict[RegionPair, int]


@lru_cache(maxsize=64)
def _layout(pairs: Pairs) -> _Layout:
    for a, b in pairs:
        if a == b:
            raise ValueError(f"self-pair {a}->{b} in traffic matrix")
    position = dict(zip(pairs, range(len(pairs))))
    if len(position) != len(pairs):
        raise ValueError("a pair appears twice in traffic matrix")
    order = np.array(sorted(range(len(pairs)), key=pairs.__getitem__),
                     dtype=np.intp)
    order.flags.writeable = False
    return _Layout(order, tuple(pairs[k] for k in order.tolist()), position)


@lru_cache(maxsize=64)
def _rows(codes: Tuple[str, ...], pairs: Pairs) -> np.ndarray:
    index = {code: i for i, code in enumerate(codes)}
    n = len(codes)
    try:
        rows = np.array([index[a] * n + index[b] for a, b in pairs],
                        dtype=np.intp)
    except KeyError:
        a, b = next((a, b) for a, b in pairs
                    if a not in index or b not in index)
        raise KeyError(f"pair {a}->{b} has a region outside {list(codes)}"
                       ) from None
    rows.flags.writeable = False
    return rows


class TrafficMatrix:
    """Demand (Mbps) between every ordered region pair at one instant."""

    def __init__(self, codes: Sequence[str], demand: Dict[RegionPair, float]):
        self._set(codes, tuple(demand),
                  np.fromiter(demand.values(), dtype=float,
                              count=len(demand)))

    @classmethod
    def from_arrays(cls, codes: Sequence[str], pairs: Sequence[RegionPair],
                    values) -> "TrafficMatrix":
        """The matrix with demand ``values[k]`` on ``pairs[k]`` (copied)."""
        matrix = cls.__new__(cls)
        matrix._set(codes, tuple(pairs), np.array(values, dtype=float))
        return matrix

    @classmethod
    def from_model(cls, model: DemandModel, t: float,
                   scale: float = 1.0) -> "TrafficMatrix":
        """Sample the demand model at instant `t` (optionally rescaled)."""
        return cls.from_arrays([r.code for r in model.regions], model.pairs,
                               model.rates_mbps(t) * scale)

    def _set(self, codes: Sequence[str], pairs: Pairs,
             values: np.ndarray) -> None:
        self.codes: List[str] = list(codes)
        self.pairs = pairs
        self._layout = _layout(pairs)
        if values.shape != (len(pairs),):
            raise ValueError(f"values of shape {values.shape} for "
                             f"{len(pairs)} pairs")
        bad = ~(values >= 0)
        if bad.any():
            k = int(np.argmax(bad))
            a, b = pairs[k]
            raise ValueError(f"negative demand or NaN: {values[k]} "
                             f"for {a}->{b}")
        values.flags.writeable = False
        #: Demand of ``pairs[k]`` (read-only).
        self.values = values

    @property
    def order(self) -> np.ndarray:
        """The positions of `pairs` in ascending pair order (memoised)."""
        return self._layout.order

    def rows(self, codes: Sequence[str]) -> np.ndarray:
        """``index(src) * N + index(dst)`` of each pair over the N
        region `codes`, in `pairs` order (memoised); a `KeyError` names
        a pair with a region outside `codes`."""
        return _rows(tuple(codes), self.pairs)

    def get(self, src: str, dst: str) -> float:
        k = self._layout.position.get((src, dst))
        return 0.0 if k is None else float(self.values[k])

    def items(self) -> Iterator[Tuple[RegionPair, float]]:
        """``(pair, demand)`` in ascending pair order."""
        return zip(self._layout.sorted_pairs,
                   self.values[self._layout.order].tolist())

    def total(self) -> float:
        # Python's left-to-right sum in `pairs` order: `ndarray.sum`
        # adds pairwise, which rounds differently.
        return float(sum(self.values.tolist()))

    def scaled(self, factor: float) -> "TrafficMatrix":
        """A copy with every entry multiplied by `factor`."""
        if not factor >= 0:
            raise ValueError(f"negative scale factor {factor}")
        return TrafficMatrix.from_arrays(self.codes, self.pairs,
                                         self.values * factor)

    def __len__(self) -> int:
        return len(self.pairs)
