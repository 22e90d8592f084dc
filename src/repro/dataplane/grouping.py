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

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.controlplane.nib import ReportBatch
from repro.obs import telemetry as _telemetry
from repro.obs.metrics import HotCounters

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


def _median(values: np.ndarray) -> np.ndarray:
    """Median over axis 0 (the representatives), bit-equal to
    ``np.median``: sort, then the middle row, or the mean of the middle
    two as ``(a + b) / 2.0`` — the IEEE operations numpy performs,
    without its per-call overhead, which dominates at R = 2-3 rows
    (one or two rows are their own middle in any order)."""
    ordered = np.sort(values, axis=0) if len(values) > 2 else values
    half = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[half]
    return (ordered[half - 1] + ordered[half]) / 2.0


class ProbingGroupManager:
    """Elects representatives and aggregates their reports per region pair."""

    def __init__(self, codes: Sequence[str], representatives: int):
        if representatives < 1:
            raise ValueError("need at least one representative")
        self.codes = tuple(codes)
        self.representatives = int(representatives)
        #: Last announced election per region (change-only trace events).
        self._elected: Dict[str, Tuple[int, ...]] = {}

    def elect(self, region: str, gateway_ids: Sequence[int]) -> List[int]:
        """Choose R representatives among a region's gateways.

        Deterministic (lowest ids) so elections are stable across epochs
        unless gateways come and go; production systems prefer stability
        to spread the probing load predictably.
        """
        if not gateway_ids:
            raise ValueError(f"region {region} has no gateways")
        return sorted(gateway_ids)[:self.representatives]

    def announce(self, region: str, chosen: Sequence[int],
                 gateways: int) -> None:
        """Trace the election when it differs from the last one traced."""
        if _TEL.enabled and self._elected.get(region) != tuple(chosen):
            self._elected[region] = tuple(chosen)
            _TEL.counter("grouping.elections").inc()
            _TEL.event("rep_election", region=region,
                       representatives=list(chosen), gateways=gateways)

    def aggregate(self, src, dst, link_type, groups, now: float,
                  keep: Optional[np.ndarray] = None) -> ReportBatch:
        """Median-aggregate representative measurements into reports.

        `src` / `dst` / `link_type` are the links' index arrays (into
        `codes` and `TYPE_ORDER`), one region's links after another's,
        and `groups` the representatives' measurements as ``(where,
        latency, loss)``: `latency` and `loss` of shape
        ``(representatives, regions, links)`` — or ``(representatives,
        links)`` for one region — one group per representative count
        (a region that elected fewer gateways has fewer rows to take
        the median of), `where` picking the group's regions out of the
        links as ``(regions, links)``.  One `ReportBatch` of the links,
        or of the ones the boolean `keep` selects from them; without
        `keep` its link columns are `src`, `dst` and `link_type`
        themselves.

        The median is robust to one representative landing on an
        idiosyncratically-bad gateway link (Fig. 7 shows such divergence
        is rare but real).
        """
        if not groups:
            raise ValueError("no measurements to aggregate")
        latency, loss = np.empty(len(src)), np.empty(len(src))
        for where, group_latency, group_loss in groups:
            if not len(group_latency):
                raise ValueError("no measurements to aggregate")
            # The columns as (regions, links); no links, no regions.
            links = group_latency.shape[-1]
            regions = len(src) // links if links else 0
            latency.reshape(regions, links)[where] = _median(group_latency)
            loss.reshape(regions, links)[where] = _median(group_loss)
        if keep is not None:
            src, dst, link_type, latency, loss = (
                column[keep] for column in
                (src, dst, link_type, latency, loss))
        # The loss column is the batch's own: clip it in place.
        np.maximum(loss, 0.0, out=loss)
        np.minimum(loss, 1.0, out=loss)
        # `ReportBatch`'s range checks, on what the clip and the one
        # instant leave open (a NaN minimum fails them).
        if len(src) and not (math.isfinite(now) and latency.min() >= 0
                             and loss.min() >= 0):
            raise ValueError(ReportBatch.OUT_OF_RANGE)
        reported_at = np.empty(len(src))
        reported_at.fill(now)
        if _TEL.enabled:
            _AGG_COUNTERS.fetch(_TEL.metrics)[0].inc(len(src))
        return ReportBatch._checked(self.codes, src, dst, link_type, latency,
                                    loss, reported_at)
