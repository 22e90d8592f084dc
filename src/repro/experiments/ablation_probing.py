"""Extra ablation: group-based probing accuracy vs cost (§4.1).

Group-based probing cuts the probe count from O(N(N-1)M^2) to
O(N(N-1)R) by probing with R representatives per region pair and
aggregating their reports.  This ablation quantifies the trade-off the
design rests on: how often does the group-level (median of R gateway
links) quality state disagree with what a randomly chosen gateway link
actually experiences, as R grows?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.dataplane.grouping import probing_cost
from repro.experiments.base import format_table, standard_underlay
from repro.sim.rng import RngStreams
from repro.underlay.linkstate import LinkType
from repro.underlay.similarity import make_gateway_links


@dataclass
class ProbingAblation:
    gateways_per_region: int
    #: R -> mean disagreement (fraction of time a non-representative
    #: link's quality state differs from the group report).
    disagreement: Dict[int, float]
    #: R -> probe streams needed (11-region deployment).
    probe_streams: Dict[int, int]
    full_mesh_streams: int

    def lines(self) -> List[str]:
        rows = []
        for r in sorted(self.disagreement):
            rows.append([r, self.disagreement[r], self.probe_streams[r],
                         self.full_mesh_streams / self.probe_streams[r]])
        lines = format_table(
            ["R (representatives)", "state disagreement",
             "probe streams", "cost reduction (x)"],
            rows,
            title="Ablation — group-based probing accuracy vs cost "
                  f"(M={self.gateways_per_region} gateways/region)")
        lines.append("")
        lines.append(f"full-mesh probing needs {self.full_mesh_streams} "
                     "streams; links in a pair share quality (Fig. 7), so "
                     "small R already tracks the group state")
        return lines


#: The sampling step of the gateway links' quality series, seconds.
STEP_S = 10.0


#: Gateways per region, the representative counts compared, and the
#: seed of the gateway links.
GATEWAYS_PER_REGION = 6
REPRESENTATIVE_COUNTS = (1, 2, 3)
SEED = 31


def run(window_s: float = 14400.0, max_pairs: int = 20) -> ProbingAblation:
    gateways_per_region, representative_counts = (GATEWAYS_PER_REGION,
                                                  REPRESENTATIVE_COUNTS)
    u = standard_underlay()
    streams = RngStreams(SEED)
    n_regions = len(u.regions)

    disagreement: Dict[int, List[float]] = {r: []
                                            for r in representative_counts}
    for (a, b) in u.pairs[:max_pairs]:
        pair_link = u.link(a, b, LinkType.INTERNET)
        links = make_gateway_links(
            pair_link, gateways_per_region,
            streams.get(f"probe-ablation.{a}->{b}"),
            event_latency_mu=u.config.internet.event_latency_mu,
            event_latency_sigma=u.config.internet.event_latency_sigma,
            event_loss_mu=u.config.internet.event_loss_mu,
            event_loss_sigma=u.config.internet.event_loss_sigma)
        states = np.stack([link.quality_series(0.0, window_s, STEP_S)
                           for link in links])
        for r in representative_counts:
            # Representatives are the lowest-id gateways (the manager's
            # deterministic election); the group state is their strict
            # majority, ties broken by the first representative (an even
            # split carries no information either way).
            votes = states[:r].sum(axis=0)
            group = np.where(votes * 2 == r, states[0],
                             votes * 2 > r).astype(bool)
            # Compare with the non-representative links.
            others = states[r:] if r < len(states) else states
            disagreement[r].append(float(np.mean(others != group[None, :])))

    return ProbingAblation(
        gateways_per_region=gateways_per_region,
        disagreement={r: float(np.mean(v)) for r, v in disagreement.items()},
        probe_streams={r: probing_cost(n_regions, gateways_per_region, r)
                       for r in representative_counts},
        full_mesh_streams=probing_cost(n_regions, gateways_per_region))
