"""Figure 4: normalised egress-cost distribution of the two tiers.

Paper targets: premium unit egress fees are much higher than Internet
fees — the median gap is 7.6x and the maximum 11.4x (prices normalised to
the most expensive Internet link).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.experiments.base import format_table, standard_underlay


@dataclass
class PricingCdf:
    internet_fees: np.ndarray
    premium_fees: np.ndarray
    ratios: np.ndarray

    @property
    def median_ratio(self) -> float:
        return float(np.median(self.ratios))

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max())

    def lines(self) -> List[str]:
        rows = [
            ["Internet fee", float(self.internet_fees.min()),
             float(np.median(self.internet_fees)),
             float(self.internet_fees.max())],
            ["Premium fee", float(self.premium_fees.min()),
             float(np.median(self.premium_fees)),
             float(self.premium_fees.max())],
            ["Premium/Internet ratio", float(self.ratios.min()),
             self.median_ratio, self.max_ratio],
        ]
        return format_table(["series", "min", "median", "max"], rows,
                            title="Fig. 4 — normalised egress pricing")


def run() -> PricingCdf:
    u = standard_underlay()
    internet = np.array(sorted(u.pricing.all_internet_fees().values()))
    premium = np.array([v for __, v in sorted(u.pricing.all_premium_fees()
                                              .items())])
    return PricingCdf(internet, premium, u.pricing.premium_to_internet_ratios())
