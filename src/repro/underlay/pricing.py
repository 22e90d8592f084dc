"""Egress pricing model (Fig. 4 and §5.2 cost terms).

Cloud network usage is priced as (egress volume) x (unit egress fee).
Internet fees vary per *source region*; premium fees vary per
*source-destination pair*.  All fees are normalised to the most expensive
Internet link (= 1.0).  The calibrated premium/Internet gap reproduces the
paper's measurement: median 7.6x, maximum 11.4x.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.underlay.regions import Region, RegionPair

#: Internet unit egress fee range, normalised to the most expensive
#: Internet link (= 1.0).
INTERNET_FEE_MIN = 0.35
INTERNET_FEE_MAX = 1.0
#: Premium fee = Internet fee of the source region x a pair multiplier
#: drawn from a triangular law (Fig. 4: median 7.6x, max 11.4x).
PREMIUM_MULTIPLIER_MIN = 4.5
PREMIUM_MULTIPLIER_MEDIAN = 7.6
PREMIUM_MULTIPLIER_MAX = 11.4
#: Cost of one gateway container per hour, in the same normalised unit
#: as "fee x GB".  Containers are cheap relative to bandwidth (the
#: paper: bandwidth is >60% of operating cost).
CONTAINER_COST_PER_HOUR = 0.8


class PricingModel:
    """Unit egress fees for both tiers plus container pricing.

    Pass ``tier_ranges`` (region code -> (fee_min, fee_max)) to draw each
    region's Internet fee from its own market tier instead of the single
    calibrated band — the planet-scale generator's heterogeneous-pricing
    mode.  With ``tier_ranges=None`` the draw sequence is exactly the
    original calibrated model, bit for bit.
    """

    def __init__(self, regions: List[Region], rng: np.random.Generator,
                 tier_ranges: Optional[Dict[str, Tuple[float, float]]] = None):
        self.regions = list(regions)
        codes = [r.code for r in regions]

        if tier_ranges is None:
            # Internet fee per source region, with exactly one region at
            # the normalisation ceiling of 1.0.
            fees = rng.uniform(INTERNET_FEE_MIN, INTERNET_FEE_MAX,
                               size=len(codes))
            fees[int(rng.integers(len(codes)))] = INTERNET_FEE_MAX
        else:
            fees = self._tiered_fees(codes, tier_ranges, rng)
        self._internet_fee: Dict[str, float] = dict(zip(codes, fees.tolist()))

        # Premium multiplier per ordered pair; triangular around the median
        # so the distribution median lands near 7.6x.
        self._premium_fee: Dict[RegionPair, float] = {}
        for a in codes:
            for b in codes:
                if a == b:
                    continue
                mult = float(rng.triangular(PREMIUM_MULTIPLIER_MIN,
                                            PREMIUM_MULTIPLIER_MEDIAN,
                                            PREMIUM_MULTIPLIER_MAX))
                self._premium_fee[(a, b)] = self._internet_fee[a] * mult

    @staticmethod
    def _tiered_fees(codes: List[str],
                     tier_ranges: Dict[str, Tuple[float, float]],
                     rng: np.random.Generator) -> np.ndarray:
        """Per-region fees drawn inside each region's tier band.

        The normalisation anchor moves with the tiers: one region drawn
        among those whose tier ceiling is highest is pinned to that
        ceiling, so the global maximum stays at the most expensive
        tier's upper bound (1.0 with the default tier table) and every
        fee remains inside its own band.
        """
        missing = [c for c in codes if c not in tier_ranges]
        if missing:
            raise ValueError(f"tier_ranges misses regions: {missing}")
        lo = np.array([tier_ranges[c][0] for c in codes])
        hi = np.array([tier_ranges[c][1] for c in codes])
        if np.any(lo <= 0) or np.any(hi < lo):
            raise ValueError("tier fee ranges must satisfy 0 < min <= max")
        if np.any(hi > INTERNET_FEE_MAX):
            raise ValueError("tier fee ceilings cannot exceed the "
                             f"normalisation ceiling {INTERNET_FEE_MAX}")
        fees = lo + rng.uniform(0.0, 1.0, size=len(codes)) * (hi - lo)
        top = np.flatnonzero(hi == hi.max())
        anchor = int(top[int(rng.integers(top.size))])
        fees[anchor] = hi[anchor]
        return fees

    def internet_fee(self, src: str) -> float:
        """Normalised unit egress fee for the Internet link out of `src`."""
        if src not in self._internet_fee:
            raise KeyError(f"unknown region {src!r}")
        return self._internet_fee[src]

    def premium_fee(self, src: str, dst: str) -> float:
        """Normalised unit egress fee for the premium link `src` -> `dst`."""
        key = (src, dst)
        if key not in self._premium_fee:
            raise KeyError(f"unknown region pair {key!r}")
        return self._premium_fee[key]

    def container_cost(self, container_hours: float) -> float:
        """Cost of running gateways for `container_hours` container-hours."""
        if container_hours < 0:
            raise ValueError("container_hours must be non-negative")
        return container_hours * CONTAINER_COST_PER_HOUR

    def all_internet_fees(self) -> Dict[str, float]:
        return dict(self._internet_fee)

    def all_premium_fees(self) -> Dict[RegionPair, float]:
        return dict(self._premium_fee)

    def premium_to_internet_ratios(self) -> np.ndarray:
        """Per-pair premium fee / source-region Internet fee (Fig. 4's gap)."""
        return np.array([fee / self._internet_fee[src]
                         for (src, __), fee in sorted(self._premium_fee.items())])
