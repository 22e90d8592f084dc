"""Parametric planet-scale topology generator (continents -> metros).

The paper's deployment stops at eleven regions; the ROADMAP's scaling
study needs hundreds.  This module grows the region set along realistic
geography: a fixed table of real metro *anchors* per continent (whose
first eleven entries are exactly :func:`default_regions`, in order),
plus seeded *satellite* metros scattered around the anchors so
``propagation_delay_ms`` keeps meaning at any N.  Each region carries an
egress-pricing tier feeding the existing :class:`PricingModel`.

Everything is fully determined by ``(n_regions, seed)``:

* ``generate_regions(11, seed)`` returns
  ``default_regions()`` exactly (same objects field-for-field), so every
  existing experiment is the N=11 special case of the generator;
* ``build_planet_underlay(n, seed=s)`` with ``n == 11`` is bit-identical
  to ``build_underlay(seed=s)`` — the golden-equivalence tests in
  ``tests/underlay/test_planet.py`` assert both properties.

See ``docs/performance.md``, "Scaling past eleven regions", for the
generator's rationale and the CI-gated region-count sweep built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.rng import RngStreams
from repro.underlay.config import UnderlayConfig
from repro.underlay.pricing import PricingModel
from repro.underlay.regions import (Region, default_regions, great_circle_km)
from repro.underlay.topology import Underlay, build_underlay

#: Inclusive bounds of the generator: below 11 the overlay degenerates,
#: above 500 the O(N^2) link population stops fitting a control epoch.
MIN_REGIONS = 11
MAX_REGIONS = 500

#: Angular radius (degrees) within which satellite metros scatter around
#: their anchor — a metro cluster, not a second continent.
SATELLITE_SPREAD_DEG = 6.0
#: Minimum angular radius, so satellites never sit on their anchor.
SATELLITE_MIN_DEG = 1.2
#: Minimum great-circle separation between any two regions, km
#: (`build_underlay` requires strictly positive base latency).
MIN_SEPARATION_KM = 100.0
#: Latitude clamp: metros stay out of the polar bands.
MAX_ABS_LATITUDE = 68.0

#: Egress-pricing tiers: Internet unit-fee range per source region,
#: normalised like `pricing.INTERNET_FEE_MAX` (most expensive Internet
#: link = 1.0).
#: "value" covers the big NA/EU cloud markets (cheap egress), "standard"
#: is the calibrated default band, "elevated" covers markets where cloud
#: egress is priced well above the global floor (Oceania, South America,
#: Africa, Middle East).
PRICING_TIERS: Dict[str, Tuple[float, float]] = {
    "value": (0.20, 0.55),
    "standard": (0.35, 1.0),
    "elevated": (0.55, 1.0),
}


@dataclass(frozen=True)
class MetroAnchor:
    """A real metro that anchors generated regions geographically."""

    name: str
    code: str
    latitude: float
    longitude: float
    utc_offset: float
    continent: str
    pricing_tier: str


#: Real metro anchors.  ORDER MATTERS: the first eleven entries mirror
#: `default_regions()` exactly (name/code/coordinates/offset/continent),
#: so N=11 reproduces the paper's deployment; further entries extend the
#: footprint to six continents in priority order.
ANCHORS: Tuple[MetroAnchor, ...] = (
    # --- the paper's eleven-region deployment (keep in default order) --
    MetroAnchor("Hangzhou", "HGH", 30.27, 120.16, 8.0, "Asia", "standard"),
    MetroAnchor("Beijing", "BJS", 39.90, 116.41, 8.0, "Asia", "standard"),
    MetroAnchor("Shenzhen", "SZX", 22.54, 114.06, 8.0, "Asia", "standard"),
    MetroAnchor("Hong Kong", "HKG", 22.32, 114.17, 8.0, "Asia", "standard"),
    MetroAnchor("Singapore", "SIN", 1.35, 103.82, 8.0, "Asia", "standard"),
    MetroAnchor("Tokyo", "TYO", 35.68, 139.69, 9.0, "Asia", "standard"),
    MetroAnchor("Mumbai", "BOM", 19.08, 72.88, 5.5, "Asia", "standard"),
    MetroAnchor("Frankfurt", "FRA", 50.11, 8.68, 1.0, "Europe", "value"),
    MetroAnchor("London", "LHR", 51.51, -0.13, 0.0, "Europe", "value"),
    MetroAnchor("Virginia", "IAD", 38.95, -77.45, -5.0, "North America",
                "value"),
    MetroAnchor("Sydney", "SYD", -33.87, 151.21, 10.0, "Australia",
                "elevated"),
    # --- expansion metros, interleaved across continents ---------------
    MetroAnchor("Silicon Valley", "SJC", 37.36, -121.93, -8.0,
                "North America", "value"),
    MetroAnchor("Seoul", "ICN", 37.46, 126.44, 9.0, "Asia", "standard"),
    MetroAnchor("Paris", "CDG", 49.01, 2.55, 1.0, "Europe", "value"),
    MetroAnchor("Sao Paulo", "GRU", -23.44, -46.47, -3.0, "South America",
                "elevated"),
    MetroAnchor("Dubai", "DXB", 25.25, 55.36, 4.0, "Asia", "elevated"),
    MetroAnchor("Johannesburg", "JNB", -26.14, 28.25, 2.0, "Africa",
                "elevated"),
    MetroAnchor("Chicago", "ORD", 41.98, -87.90, -6.0, "North America",
                "value"),
    MetroAnchor("Jakarta", "CGK", -6.13, 106.65, 7.0, "Asia", "standard"),
    MetroAnchor("Amsterdam", "AMS", 52.31, 4.76, 1.0, "Europe", "value"),
    MetroAnchor("Osaka", "KIX", 34.43, 135.23, 9.0, "Asia", "standard"),
    MetroAnchor("Toronto", "YYZ", 43.68, -79.63, -5.0, "North America",
                "value"),
    MetroAnchor("Kuala Lumpur", "KUL", 3.14, 101.69, 8.0, "Asia",
                "standard"),
    MetroAnchor("Madrid", "MAD", 40.47, -3.57, 1.0, "Europe", "value"),
    MetroAnchor("Melbourne", "MEL", -37.67, 144.84, 10.0, "Australia",
                "elevated"),
    MetroAnchor("Bangkok", "BKK", 13.69, 100.75, 7.0, "Asia", "standard"),
    MetroAnchor("Dallas", "DFW", 32.90, -97.04, -6.0, "North America",
                "value"),
    MetroAnchor("Stockholm", "ARN", 59.65, 17.92, 1.0, "Europe", "value"),
    MetroAnchor("Santiago", "SCL", -33.39, -70.79, -4.0, "South America",
                "elevated"),
    MetroAnchor("Manila", "MNL", 14.51, 121.02, 8.0, "Asia", "standard"),
    MetroAnchor("Lagos", "LOS", 6.58, 3.32, 1.0, "Africa", "elevated"),
    MetroAnchor("Oregon", "PDX", 45.59, -122.60, -8.0, "North America",
                "value"),
    MetroAnchor("Chennai", "MAA", 12.99, 80.17, 5.5, "Asia", "standard"),
    MetroAnchor("Milan", "MXP", 45.63, 8.72, 1.0, "Europe", "value"),
    MetroAnchor("Riyadh", "RUH", 24.96, 46.70, 3.0, "Asia", "elevated"),
    MetroAnchor("Nairobi", "NBO", -1.32, 36.93, 3.0, "Africa", "elevated"),
    MetroAnchor("Mexico City", "MEX", 19.44, -99.07, -6.0, "North America",
                "elevated"),
    MetroAnchor("Warsaw", "WAW", 52.17, 20.97, 1.0, "Europe", "value"),
    MetroAnchor("Bogota", "BOG", 4.70, -74.15, -5.0, "South America",
                "elevated"),
    MetroAnchor("Istanbul", "IST", 41.26, 28.74, 3.0, "Europe", "elevated"),
    MetroAnchor("Cairo", "CAI", 30.12, 31.41, 2.0, "Africa", "elevated"),
    MetroAnchor("Auckland", "AKL", -37.01, 174.79, 12.0, "Oceania",
                "elevated"),
)


def _wrap_longitude(lon: float) -> float:
    return (lon + 180.0) % 360.0 - 180.0


def generate_regions(n_regions: int, seed: int = 0) -> List[Region]:
    """Generate `n_regions` regions in [MIN_REGIONS, MAX_REGIONS],
    deterministic in (n_regions, seed).

    The first ``min(n, len(ANCHORS))`` regions are the anchor metros in
    table order — so N=11 is exactly :func:`default_regions` — and the
    remainder are satellite metros placed round-robin across the anchors
    with seeded angular offsets, rejection-sampled (with a growing
    radius) until every pair of regions is at least
    `MIN_SEPARATION_KM` apart.
    """
    n = n_regions
    if not MIN_REGIONS <= n <= MAX_REGIONS:
        raise ValueError(f"n_regions must be in [{MIN_REGIONS}, "
                         f"{MAX_REGIONS}], got {n}")
    if n == MIN_REGIONS:
        # The paper's deployment, exactly: default tiers, default order.
        return default_regions()

    streams = RngStreams(seed)
    regions: List[Region] = [
        Region(a.name, a.code, a.latitude, a.longitude, a.utc_offset,
               a.continent, a.pricing_tier)
        for a in ANCHORS[:min(n, len(ANCHORS))]]

    ordinal = {a.code: 2 for a in ANCHORS}  # next satellite number
    k = 0
    while len(regions) < n:
        anchor = ANCHORS[k % len(ANCHORS)]
        k += 1
        rng = streams.get(f"planet.metro.{anchor.code}")
        placed = None
        for attempt in range(64):
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            radius = float(rng.uniform(SATELLITE_MIN_DEG,
                                       SATELLITE_SPREAD_DEG))
            radius *= 1.0 + 0.25 * attempt  # widen until separation holds
            lat = anchor.latitude + radius * math.sin(angle)
            lat = max(-MAX_ABS_LATITUDE, min(MAX_ABS_LATITUDE, lat))
            # Longitude offset corrected for convergence of meridians.
            lon_scale = max(0.2, math.cos(math.radians(anchor.latitude)))
            lon = _wrap_longitude(anchor.longitude
                                  + radius * math.cos(angle) / lon_scale)
            candidate = Region(
                f"{anchor.name} {ordinal[anchor.code]}",
                f"{anchor.code}{ordinal[anchor.code]}",
                round(lat, 4), round(lon, 4), anchor.utc_offset,
                anchor.continent, anchor.pricing_tier)
            if all(great_circle_km(candidate, r) >= MIN_SEPARATION_KM
                   for r in regions):
                placed = candidate
                break
        if placed is None:  # pragma: no cover - 64 widening tries suffice
            raise RuntimeError(
                f"could not place a satellite of {anchor.code} with "
                f"{MIN_SEPARATION_KM} km separation")
        ordinal[anchor.code] += 1
        regions.append(placed)

    codes = [r.code for r in regions]
    if len(set(codes)) != len(codes):  # pragma: no cover - by construction
        raise RuntimeError("generated duplicate region codes")
    return regions


def tier_fee_ranges(regions: List[Region]) -> Dict[str, Tuple[float, float]]:
    """Per-region Internet fee range from each region's pricing tier."""
    unknown = {r.pricing_tier for r in regions} - set(PRICING_TIERS)
    if unknown:
        raise ValueError(f"unknown pricing tiers: {sorted(unknown)}")
    return {r.code: PRICING_TIERS[r.pricing_tier] for r in regions}


def build_planet_underlay(n_regions: int, seed: int = 0,
                          underlay_config: Optional[UnderlayConfig] = None
                          ) -> Underlay:
    """Generate `n_regions` regions and assemble the full underlay in one
    call.

    For N=11 the pricing model is left to `build_underlay`'s default
    draw, making the result bit-identical to ``build_underlay(seed=seed)``;
    larger topologies draw tiered Internet fees from the same named
    ``"pricing"`` RNG stream.
    """
    regions = generate_regions(n_regions, seed)
    ucfg = underlay_config if underlay_config is not None else UnderlayConfig()
    pricing = None
    if any(r.pricing_tier != "standard" for r in regions):
        streams = RngStreams(seed)
        pricing = PricingModel(regions, streams.get("pricing"),
                               tier_ranges=tier_fee_ranges(regions))
    return build_underlay(regions, ucfg, seed=seed, pricing=pricing)
