"""Cloud regions and geography.

XRON is deployed in eleven Alibaba Cloud regions across four continents.
The exact regions are not listed in the paper, so we use a plausible set of
eleven Alibaba Cloud regions with their real coordinates.  Only relative
distances matter: they set base propagation delays and hence which relay
paths are attractive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

EARTH_RADIUS_KM = 6371.0
#: Speed of light in fibre, km per ms (~0.2 m/ns -> 200 km/ms).
FIBRE_KM_PER_MS = 200.0


@dataclass(frozen=True)
class Region:
    """A cloud region hosting video-conferencing clusters and XRON gateways."""

    name: str
    #: Short code used in tables and forwarding entries.
    code: str
    latitude: float
    longitude: float
    #: Hours offset from UTC; drives the local three-peak demand pattern.
    utc_offset: float
    continent: str
    #: Egress-pricing tier (see `repro.underlay.planet.PRICING_TIERS`).
    #: The default "standard" keeps the calibrated eleven-region pricing
    #: model unchanged; generated planet-scale topologies assign tiers
    #: per metro market.
    pricing_tier: str = "standard"


#: An ordered (source, destination) region pair. Order matters everywhere:
#: link states, pricing, and forwarding are all directional.
RegionPair = Tuple[str, str]


def default_regions() -> List[Region]:
    """The eleven-region deployment used throughout the reproduction.

    Eleven Alibaba Cloud regions across four continents (Asia, Europe,
    North America, Australia), matching the paper's deployment scale.
    """
    return [
        Region("Hangzhou", "HGH", 30.27, 120.16, 8.0, "Asia"),
        Region("Beijing", "BJS", 39.90, 116.41, 8.0, "Asia"),
        Region("Shenzhen", "SZX", 22.54, 114.06, 8.0, "Asia"),
        Region("Hong Kong", "HKG", 22.32, 114.17, 8.0, "Asia"),
        Region("Singapore", "SIN", 1.35, 103.82, 8.0, "Asia"),
        Region("Tokyo", "TYO", 35.68, 139.69, 9.0, "Asia"),
        Region("Mumbai", "BOM", 19.08, 72.88, 5.5, "Asia"),
        Region("Frankfurt", "FRA", 50.11, 8.68, 1.0, "Europe"),
        Region("London", "LHR", 51.51, -0.13, 0.0, "Europe"),
        Region("Virginia", "IAD", 38.95, -77.45, -5.0, "North America"),
        Region("Sydney", "SYD", -33.87, 151.21, 10.0, "Australia"),
    ]


def great_circle_km(a: Region, b: Region) -> float:
    """Great-circle distance between two regions in kilometres (haversine)."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = (math.sin(dlat / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def propagation_delay_ms(a: Region, b: Region, path_stretch: float = 1.0) -> float:
    """One-way speed-of-light-in-fibre delay between regions, in ms.

    `path_stretch` >= 1 models fibre routes being longer than great
    circles (and, for Internet paths, detours through exchange points).
    """
    if path_stretch < 1.0:
        raise ValueError(f"path_stretch must be >= 1, got {path_stretch}")
    return great_circle_km(a, b) / FIBRE_KM_PER_MS * path_stretch


def all_ordered_pairs(regions: List[Region]) -> List[RegionPair]:
    """Every ordered pair of distinct region codes, in a stable order."""
    return [(a.code, b.code) for a in regions for b in regions if a.code != b.code]
