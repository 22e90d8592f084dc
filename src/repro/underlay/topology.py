"""The assembled underlay: all regions, all directed links, pricing.

`build_underlay` draws every per-link random parameter (stretch, baseline
loss, badness factor, degradation timeline) from named RNG streams and
writes it into the underlay's `LinkTable`, so an `Underlay` is fully
determined by (regions, config, seed).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.rng import RngStreams
from repro.underlay.config import UnderlayConfig
from repro.underlay.events import EventTimeline, generate_timeline
from repro.underlay.linkstate import LinkProcess, LinkType
from repro.underlay.pricing import PricingModel
from repro.underlay.regions import (Region, RegionPair, all_ordered_pairs,
                                    default_regions, propagation_delay_ms)
from repro.underlay.snapshot import LinkStateSnapshot, LinkTable

#: Key of a directed link: (src code, dst code, link type).
LinkKey = Tuple[str, str, LinkType]


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
        self._state_memo = None  # last state_at() result

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
        sees it, an instant already evaluated included."""
        self.table.set_timeline(self._row(src, dst, link_type), timeline)
        self._state_memo = None

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

    def state_at(self, t: float):
        """The shared, read-only `snapshot` of instant `t`.

        Everything that reads true link state at one simulated instant
        (each cluster's probe round, the session measurement tick) gets
        the same object, so the underlay is evaluated once per instant
        instead of once per link per reader.  Remembers only the last
        instant asked for.
        """
        memo = self._state_memo
        if memo is None or memo.t != t:
            memo = self.snapshot(t)
            memo.lat.setflags(write=False)
            memo.loss.setflags(write=False)
            self._state_memo = memo
        return memo

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

    table = LinkTable(regions)
    for src in regions:
        for dst in regions:
            if src.code == dst.code:
                continue
            for link_type, lc in ((LinkType.INTERNET, config.internet),
                                  (LinkType.PREMIUM, config.premium)):
                key_str = f"underlay.{src.code}->{dst.code}.{link_type.value}"
                rng = streams.get(key_str)
                stretch = rng.uniform(lc.stretch_min, lc.stretch_max)
                base_latency = propagation_delay_ms(src, dst, stretch)
                base_loss = rng.uniform(lc.base_loss_min, lc.base_loss_max)
                badness = min(float(rng.pareto(lc.badness_pareto_alpha)) + 1.0,
                              lc.badness_max)
                timeline = generate_timeline(
                    rng, config.horizon_s,
                    short_events_per_day=lc.short_events_per_day,
                    long_events_per_day=lc.long_events_per_day,
                    short_duration_mean_s=lc.short_duration_mean_s,
                    long_duration_mu=lc.long_duration_mu,
                    long_duration_sigma=lc.long_duration_sigma,
                    event_latency_mu=lc.event_latency_mu,
                    event_latency_sigma=lc.event_latency_sigma,
                    event_loss_mu=lc.event_loss_mu,
                    event_loss_sigma=lc.event_loss_sigma,
                    rate_scale=badness ** lc.rate_exponent,
                    severity_scale=1.0 + 0.12 * (badness - 1.0),
                    start_offset=start_offset)
                table.set_link(
                    src.code, dst.code, link_type,
                    base_latency_ms=base_latency,
                    jitter_sigma=lc.jitter_sigma,
                    diurnal_latency_amp=lc.diurnal_latency_amp,
                    base_loss=base_loss,
                    diurnal_loss_amp=(lc.diurnal_loss_amp
                                      * badness ** lc.diurnal_loss_exponent),
                    timeline=timeline,
                    noise_seed=streams.seed_for(key_str))
    table.validate()

    if pricing is None:
        pricing = PricingModel(regions, config.pricing,
                               streams.get("pricing"))
    return Underlay(regions, table, pricing, config)
