"""Traffic matrices: a demand snapshot for one control epoch."""

from __future__ import annotations

from typing import Dict, ItemsView, Iterator, List, Tuple

from repro.traffic.demand import DemandModel
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

    @classmethod
    def from_model(cls, model: DemandModel, t: float,
                   scale: float = 1.0) -> "TrafficMatrix":
        """Sample the demand model at instant `t` (optionally rescaled)."""
        rates = model.rates_mbps(t) * scale
        demand = dict(zip(model.pairs, rates.tolist()))
        return cls([r.code for r in model.regions], demand)

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
