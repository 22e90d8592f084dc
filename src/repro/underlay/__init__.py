"""Synthetic cloud underlay: regions, links, degradations, and pricing.

This package substitutes for the real Alibaba Cloud wide-area network the
paper measured in §2.2.  It provides, for every ordered region pair and each
link type (Internet / premium), a deterministic stochastic process for
latency and loss rate that can be sampled at any virtual time, plus the
degradation-event timelines, the per-gateway link instances used for the
similarity study (Fig. 7), and the egress pricing model (Fig. 4).
"""

from repro.underlay.config import UnderlayConfig
from repro.underlay.regions import Region, RegionPair, default_regions, great_circle_km
from repro.underlay.events import DegradationEvent, EventTimeline, generate_timeline
from repro.underlay.linkstate import LinkType, LinkProcess
from repro.underlay.planet import (ANCHORS, MetroAnchor, PlanetConfig,
                                   PRICING_TIERS, build_planet_underlay,
                                   generate_regions, tier_fee_ranges)
from repro.underlay.pricing import PricingModel
from repro.underlay.similarity import GatewayLinkInstance, quality_similarity
from repro.underlay.snapshot import TYPE_INDEX, TYPE_ORDER, LinkStateSnapshot
from repro.underlay.topology import Underlay, build_underlay

__all__ = [
    "UnderlayConfig",
    "ANCHORS",
    "MetroAnchor",
    "PlanetConfig",
    "PRICING_TIERS",
    "build_planet_underlay",
    "generate_regions",
    "tier_fee_ranges",
    "Region",
    "RegionPair",
    "default_regions",
    "great_circle_km",
    "DegradationEvent",
    "EventTimeline",
    "generate_timeline",
    "LinkType",
    "LinkProcess",
    "PricingModel",
    "GatewayLinkInstance",
    "quality_similarity",
    "LinkStateSnapshot",
    "TYPE_INDEX",
    "TYPE_ORDER",
    "Underlay",
    "build_underlay",
]
