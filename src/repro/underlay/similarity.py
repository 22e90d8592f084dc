"""Per-gateway link instances and the intra-pair similarity study (Fig. 7).

With M gateways per region, a region pair has M^2 gateway-level links.
Measurements show these share the same quality state most of the time
(>=77%, and >=90% for 80% of pairs), which is what justifies XRON's
group-based probing (§4.1): probe with R representatives instead of all
M^2 links.

We model a gateway-level link as the *shared* region-pair process plus a
small idiosyncratic degradation timeline of its own.  The shared part
dominates, reproducing the measured similarity.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.underlay.events import EventTimeline, generate_timeline
from repro.underlay.linkstate import (HIGH_LATENCY_MS, HIGH_LOSS_RATE,
                                      LinkProcess)

#: Idiosyncratic short events per day per gateway link (Internet).
IDIO_EVENTS_PER_DAY = 170.0
#: Mean duration of an idiosyncratic short event, seconds.
IDIO_DURATION_MEAN_S = 7.0
#: Idiosyncratic latency/loss severities reuse the link-type lognormals
#: scaled by this factor.
IDIO_SEVERITY_SCALE = 0.7


class GatewayLinkInstance:
    """One gateway-to-gateway link within a region pair."""

    def __init__(self, pair_process: LinkProcess, idio_timeline: EventTimeline,
                 gateway_id: int):
        self.pair_process = pair_process
        self.idio_timeline = idio_timeline
        self.gateway_id = int(gateway_id)

    def latency_ms(self, t) -> np.ndarray:
        return (self.pair_process.latency_ms(t)
                + self.idio_timeline.latency_add(t))

    def loss_rate(self, t) -> np.ndarray:
        return np.clip(self.pair_process.loss_rate(t)
                       + self.idio_timeline.loss_add(t), 0.0, 1.0)

    def quality_series(self, t0: float, t1: float,
                       step: float = 1.0) -> np.ndarray:
        """Boolean bad-state classification over a window."""
        times = np.arange(t0, t1, step)
        return ((self.latency_ms(times) > HIGH_LATENCY_MS)
                | (self.loss_rate(times) > HIGH_LOSS_RATE))


def make_gateway_links(pair_process: LinkProcess, n_gateways: int,
                       rng: np.random.Generator, *,
                       event_latency_mu: float,
                       event_latency_sigma: float,
                       event_loss_mu: float,
                       event_loss_sigma: float,
                       idio_events_per_day: float = IDIO_EVENTS_PER_DAY
                       ) -> List[GatewayLinkInstance]:
    """Instantiate `n_gateways` gateway-level links over one pair process
    (`idio_events_per_day` scales in the Fig. 7 sensitivity sweep)."""
    if n_gateways < 1:
        raise ValueError(f"need at least one gateway, got {n_gateways}")
    links = []
    horizon = pair_process.timeline.horizon_s
    for gid in range(n_gateways):
        idio = generate_timeline(
            rng, horizon,
            short_events_per_day=idio_events_per_day,
            long_events_per_day=idio_events_per_day / 150.0,
            short_duration_mean_s=IDIO_DURATION_MEAN_S,
            long_duration_mu=3.8, long_duration_sigma=0.9,
            event_latency_mu=event_latency_mu,
            event_latency_sigma=event_latency_sigma,
            event_loss_mu=event_loss_mu,
            event_loss_sigma=event_loss_sigma,
            severity_scale=IDIO_SEVERITY_SCALE)
        links.append(GatewayLinkInstance(pair_process, idio, gid))
    return links


def quality_similarity(links: Sequence[GatewayLinkInstance], t0: float,
                       t1: float, step: float = 1.0) -> float:
    """Fraction of time all links of a pair share the same quality state.

    This is the paper's similarity metric: 'the time proportion where
    different links share the same quality.'
    """
    if len(links) < 2:
        return 1.0
    series = np.stack([link.quality_series(t0, t1, step) for link in links])
    all_same = np.all(series == series[0], axis=0)
    return float(np.mean(all_same))
