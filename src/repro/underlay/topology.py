"""The assembled underlay: all regions, all directed links, pricing.

`build_underlay` draws every per-link random parameter (stretch, baseline
loss, badness factor, degradation timeline) from named RNG streams and
writes it into the underlay's `LinkTable`, so an `Underlay` is fully
determined by (regions, config, seed).  The draws stay link by link, one
stream per link; seeding the streams, finishing and compiling the
timelines and writing the table are each one pass over every link.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.rng import RngStreams
from repro.underlay.config import UnderlayConfig
from repro.underlay.events import EventTimeline, TimelineDraws
from repro.underlay.linkstate import LinkProcess, LinkType
from repro.underlay.pricing import PricingModel
from repro.underlay.regions import (Region, RegionPair, all_ordered_pairs,
                                    default_regions, propagation_delay_ms)
from repro.underlay.snapshot import LinkStateSnapshot, LinkTable

#: Key of a directed link: (src code, dst code, link type).
LinkKey = Tuple[str, str, LinkType]

#: The fields of a tier's config that parameterise its degradation
#: events (`TimelineDraws.draw`'s keywords besides the two scales).
_EVENT_PARAMETERS = (
    "short_events_per_day", "long_events_per_day", "short_duration_mean_s",
    "long_duration_mu", "long_duration_sigma", "event_latency_mu",
    "event_latency_sigma", "event_loss_mu", "event_loss_sigma")


class Underlay:
    """All directed links between regions, as one `LinkTable`, plus
    pricing."""

    def __init__(self, regions: List[Region], table: LinkTable,
                 pricing: PricingModel, config: UnderlayConfig):
        self.regions = list(regions)
        self.region_by_code = {r.code: r for r in regions}
        self.table = table
        #: Every directed link's key -> its (tier, i, j) row of `table`.
        self._links = table.rows
        self.pricing = pricing
        self.config = config

    # ------------------------------------------------------------------ api
    @property
    def codes(self) -> List[str]:
        return [r.code for r in self.regions]

    @property
    def pairs(self) -> List[RegionPair]:
        return all_ordered_pairs(self.regions)

    def link(self, src: str, dst: str, link_type: LinkType) -> LinkProcess:
        """The directed link `src` -> `dst` of `link_type`."""
        return LinkProcess(self.table, self._row(src, dst, link_type),
                           self.region_by_code[src], self.region_by_code[dst],
                           link_type)

    def links_of_type(self, link_type: LinkType) -> Iterable[LinkProcess]:
        """All directed links of one tier, in stable order."""
        for (src, dst) in self.pairs:
            yield self.link(src, dst, link_type)

    def region(self, code: str) -> Region:
        if code not in self.region_by_code:
            raise KeyError(f"unknown region {code!r}")
        return self.region_by_code[code]

    def set_timeline(self, src: str, dst: str, link_type: LinkType,
                     timeline: EventTimeline) -> None:
        """Replace one directed link's degradation timeline (scripted
        scenarios: `repro.underlay.scenarios`); every later evaluation
        sees it, an instant already evaluated included (a block of
        instants evaluated before is stale: `LinkTable.generation`)."""
        self.table.set_timeline(self._row(src, dst, link_type), timeline)

    def _row(self, src: str, dst: str, link_type: LinkType):
        key = (src, dst, link_type)
        if key not in self._links:
            raise KeyError(f"no such link: {src}->{dst} ({link_type.value})")
        return self._links[key]

    def snapshot(self, t: float) -> LinkStateSnapshot:
        """Matrix link-state snapshot of every link at instant `t`."""
        return LinkStateSnapshot.from_underlay(self, t)

    def link_series(self, hops: Sequence[LinkKey],
                    times) -> Tuple[np.ndarray, np.ndarray]:
        """(latency_ms, loss_rate) of the directed links `hops` over
        `times`, each of shape ``(len(hops), len(times))``.

        The whole block costs one vectorised pass over the table.
        `times` is any 1-d sequence of instants: unsorted, repeated, a
        single one or none give the columns of the sorted call in the
        order asked.  An instant exactly on a breakpoint of a link's
        degradation timeline takes the piece that starts there, one
        before the timeline's first breakpoint adds 0.0, and a timeline
        whose first breakpoint lies after ``max(times)`` costs the pass
        nothing.  An instant past the generated horizon is a
        `ValueError`, a hop that is not a link a `KeyError`.
        """
        return self.table.series(hops, times)

    def average_state(self, link_type: LinkType,
                      times) -> Tuple[np.ndarray, np.ndarray]:
        """Mean (latency_ms, loss_rate) over all directed pairs of one
        tier at each of `times` (Figs. 1a and 2a)."""
        lat, loss = self.link_series(
            [(a, b, link_type) for (a, b) in self.pairs], times)
        return np.mean(lat, axis=0), np.mean(loss, axis=0)


def build_underlay(regions: Optional[List[Region]] = None,
                   config: Optional[UnderlayConfig] = None,
                   seed: int = 0,
                   pricing: Optional[PricingModel] = None,
                   start_offset: float = 0.0) -> Underlay:
    """Construct a deterministic synthetic underlay.

    Each directed link of each type draws its own stretch factor, baseline
    loss, badness factor (Pareto-tailed, so a minority of Internet links
    are much worse — Fig. 3), and degradation timeline.  Pass `pricing`
    to reuse an existing pricing model (multi-day studies rebuild link
    processes daily, but egress fees do not change day to day).
    """
    regions = regions if regions is not None else default_regions()
    if len(regions) < 2:
        raise ValueError("an underlay needs at least two regions")
    config = config if config is not None else UnderlayConfig()
    streams = RngStreams(seed)

    tiers = {link_type: (lc, {name: getattr(lc, name)
                              for name in _EVENT_PARAMETERS})
             for link_type, lc in ((LinkType.INTERNET, config.internet),
                                   (LinkType.PREMIUM, config.premium))}
    keys = [(src.code, dst.code, link_type)
            for src in regions for dst in regions if src.code != dst.code
            for link_type in tiers]
    generators, noise_seeds = streams.get_many(
        [f"underlay.{src}->{dst}.{link_type.value}"
         for (src, dst, link_type) in keys])
    region = {r.code: r for r in regions}
    draws = TimelineDraws(config.horizon_s, start_offset)
    base_latency, base_loss, diurnal_loss = [], [], []
    # Each link's draws in its own stream's order: stretch, base loss,
    # badness, then its degradation events.
    for (src, dst, link_type), rng in zip(keys, generators):
        lc, events = tiers[link_type]
        stretch = rng.uniform(lc.stretch_min, lc.stretch_max)
        base_latency.append(
            propagation_delay_ms(region[src], region[dst], stretch))
        base_loss.append(rng.uniform(lc.base_loss_min, lc.base_loss_max))
        badness = min(float(rng.pareto(lc.badness_pareto_alpha)) + 1.0,
                      lc.badness_max)
        draws.draw(rng, rate_scale=badness ** lc.rate_exponent,
                   severity_scale=1.0 + 0.12 * (badness - 1.0),
                   **events)
        diurnal_loss.append(lc.diurnal_loss_amp
                            * badness ** lc.diurnal_loss_exponent)

    table = LinkTable(regions)
    table.set_links(
        keys, base_latency_ms=base_latency,
        jitter_sigma=[tiers[lt][0].jitter_sigma for (__, __, lt) in keys],
        diurnal_latency_amp=[tiers[lt][0].diurnal_latency_amp
                             for (__, __, lt) in keys],
        base_loss=base_loss, diurnal_loss_amp=diurnal_loss,
        timelines=draws.compile(), noise_seed=noise_seeds)
    table.validate()

    if pricing is None:
        pricing = PricingModel(regions, streams.get("pricing"))
    return Underlay(regions, table, pricing, config)
