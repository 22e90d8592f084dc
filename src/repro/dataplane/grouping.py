"""Group-based probing (§4.1).

Full-mesh probing between all gateways of all regions costs
O(N(N-1)M^2) probe streams for N regions of M gateways.  Because links of
the same region pair share quality most of the time (Fig. 7), XRON groups
each region's gateways and elects R representatives per region pair; only
representatives run full active probing, and their reports are aggregated
(median) into the group-level link state sent to the controller —
O(N(N-1)R) probe streams.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.controlplane.nib import LinkReport
from repro.obs import telemetry as _telemetry
from repro.obs.metrics import HotCounters
from repro.underlay.linkstate import LinkType

_TEL = _telemetry()
_AGG_COUNTERS = HotCounters("grouping.aggregations")


def probing_cost(n_regions: int, gateways_per_region: int,
                 representatives: int = 0) -> int:
    """Probe-stream count: full mesh if `representatives` == 0, else grouped.

    Full:    N(N-1) M^2 directed gateway-to-gateway probe streams.
    Grouped: N(N-1) R.
    """
    if n_regions < 2:
        raise ValueError("need at least two regions")
    pair_count = n_regions * (n_regions - 1)
    if representatives <= 0:
        return pair_count * gateways_per_region ** 2
    return pair_count * representatives


def _median(values: List[float]) -> float:
    """Median of a handful of floats, bit-equal to ``np.median``.

    Sorts and takes the middle element, or the mean of the middle two
    as ``(a + b) / 2.0`` — the IEEE operations numpy performs — without
    numpy's per-call overhead, which dominates at R = 2-3 values.
    """
    ordered = sorted(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2.0)


class ProbingGroupManager:
    """Elects representatives and aggregates their reports per region pair."""

    def __init__(self, codes: Sequence[str], representatives: int = 2):
        if representatives < 1:
            raise ValueError("need at least one representative")
        self.codes = list(codes)
        self.representatives = int(representatives)
        #: Last election per region, for change-only trace events.
        self._elected: Dict[str, Tuple[int, ...]] = {}

    def elect(self, region: str, gateway_ids: Sequence[int]) -> List[int]:
        """Choose R representatives among a region's gateways.

        Deterministic (lowest ids) so elections are stable across epochs
        unless gateways come and go; production systems prefer stability
        to spread the probing load predictably.
        """
        if not gateway_ids:
            raise ValueError(f"region {region} has no gateways")
        chosen = sorted(gateway_ids)[:self.representatives]
        if _TEL.enabled and self._elected.get(region) != tuple(chosen):
            self._elected[region] = tuple(chosen)
            _TEL.counter("grouping.elections").inc()
            _TEL.event("rep_election", region=region,
                       representatives=chosen,
                       gateways=len(gateway_ids))
        return chosen

    def aggregate(self, src: str, dst: str, link_type: LinkType,
                  measurements: Sequence[Tuple[float, float]],
                  now: float) -> LinkReport:
        """Median-aggregate representative measurements into one report.

        The median is robust to one representative landing on an
        idiosyncratically-bad gateway link (Fig. 7 shows such divergence
        is rare but real).
        """
        if not measurements:
            raise ValueError("no measurements to aggregate")
        if _TEL.enabled:
            _AGG_COUNTERS.fetch(_TEL.metrics)[0].inc()
        lat = _median([m[0] for m in measurements])
        loss = _median([m[1] for m in measurements])
        return LinkReport(src, dst, link_type, lat, min(max(loss, 0.0), 1.0),
                          now)
