"""Figure 7: links of the same region pair share network conditions.

Paper targets: for every region pair, the gateway-level links share the
same quality state more than 77% of the time; for 80% of pairs similarity
exceeds 90%.  This is the observation justifying group-based probing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.ascii import series_panel
from repro.dataplane.grouping import probing_cost
from repro.experiments.base import format_table, standard_underlay
from repro.sim.rng import RngStreams
from repro.underlay.linkstate import LinkType
from repro.underlay.similarity import (IDIO_EVENTS_PER_DAY,
                                       make_gateway_links, quality_similarity)
from repro.underlay.topology import Underlay


@dataclass
class SimilarityFigure:
    similarities: np.ndarray
    gateways_per_region: int
    representatives: int
    n_regions: int
    #: Fig. 7a: per-gateway-link loss series of one example pair.
    example_loss_series: list = None

    @property
    def min_similarity(self) -> float:
        return float(self.similarities.min())

    @property
    def fraction_over_90(self) -> float:
        return float(np.mean(self.similarities >= 0.90))

    @property
    def probe_reduction_factor(self) -> float:
        full = probing_cost(self.n_regions, self.gateways_per_region)
        grouped = probing_cost(self.n_regions, self.gateways_per_region,
                               self.representatives)
        return full / grouped

    def lines(self) -> List[str]:
        rows = [
            ["min similarity across pairs", self.min_similarity],
            ["median similarity", float(np.median(self.similarities))],
            ["fraction of pairs >= 90%", self.fraction_over_90],
            [f"probe streams, full mesh (M={self.gateways_per_region})",
             probing_cost(self.n_regions, self.gateways_per_region)],
            [f"probe streams, grouped (R={self.representatives})",
             probing_cost(self.n_regions, self.gateways_per_region,
                          self.representatives)],
            ["probing cost reduction", self.probe_reduction_factor],
        ]
        lines = format_table(["metric", "value"], rows,
                             title="Fig. 7 — intra-pair link similarity and "
                                   "group-based probing")
        if self.example_loss_series:
            lines.append("")
            lines.append("example pair: loss of individual gateway links")
            for i, series in enumerate(self.example_loss_series):
                lines += series_panel(f"  gateway link {i}", series * 100,
                                      unit="%")
        return lines


def run(underlay: Optional[Underlay] = None, gateways_per_region: int = 4,
        representatives: int = 2, window_s: float = 21600.0,
        step_s: float = 5.0, seed: int = 11,
        max_pairs: Optional[int] = None) -> SimilarityFigure:
    """Instantiate gateway-level links for each pair and measure similarity."""
    u = underlay if underlay is not None else standard_underlay()
    streams = RngStreams(seed)
    pairs = u.pairs if max_pairs is None else u.pairs[:max_pairs]
    sims = []
    example_series = None
    sample_times = np.arange(0.0, window_s, max(step_s * 6, 60.0))
    for (a, b) in pairs:
        pair_link = u.link(a, b, LinkType.INTERNET)
        # Pairs differ in how idiosyncratic their gateway links are
        # (peering diversity); this spreads the CDF the way Fig. 7b shows.
        idio_factor = float(streams.get(f"gwidio.{a}->{b}").uniform(0.4, 2.8))
        links = make_gateway_links(
            pair_link, gateways_per_region,
            streams.get(f"gwlinks.{a}->{b}"),
            event_latency_mu=u.config.internet.event_latency_mu,
            event_latency_sigma=u.config.internet.event_latency_sigma,
            event_loss_mu=u.config.internet.event_loss_mu,
            event_loss_sigma=u.config.internet.event_loss_sigma,
            idio_events_per_day=IDIO_EVENTS_PER_DAY * idio_factor)
        sims.append(quality_similarity(links, 0.0, window_s, step_s))
        if example_series is None:
            example_series = [link.loss_rate(sample_times)
                              for link in links[:4]]
    return SimilarityFigure(np.array(sims), gateways_per_region,
                            representatives, len(u.regions),
                            example_series)
