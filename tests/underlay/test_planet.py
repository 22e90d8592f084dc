"""The planet-scale topology generator (docs/scaling.md).

Golden property: N=11 is *exactly* the paper's deployment — same Region
objects from `generate_regions`, bit-identical link parameters and fees
from `build_planet_underlay`.  Everything else checks the generator's
contract: determinism in (config, seed), satellite separation, pricing
tiers, and parameter validation.
"""

import numpy as np
import pytest

from repro.underlay.config import UnderlayConfig
from repro.underlay.planet import (ANCHORS, MAX_REGIONS, MIN_REGIONS,
                                   PRICING_TIERS, PlanetConfig,
                                   build_planet_underlay, generate_regions,
                                   tier_fee_ranges)
from repro.underlay.regions import Region, default_regions, great_circle_km
from repro.underlay.topology import build_underlay

UCFG = UnderlayConfig(horizon_s=600.0)


# ----------------------------------------------------------------- anchors


def test_first_eleven_anchors_mirror_default_regions():
    defaults = default_regions()
    assert len(defaults) == MIN_REGIONS
    for anchor, region in zip(ANCHORS[:MIN_REGIONS], defaults):
        assert anchor.name == region.name
        assert anchor.code == region.code
        assert anchor.latitude == region.latitude
        assert anchor.longitude == region.longitude
        assert anchor.utc_offset == region.utc_offset
        assert anchor.continent == region.continent


def test_anchor_table_is_valid():
    codes = [a.code for a in ANCHORS]
    assert len(set(codes)) == len(codes)
    for a in ANCHORS:
        assert a.pricing_tier in PRICING_TIERS
        assert -90.0 <= a.latitude <= 90.0
        assert -180.0 <= a.longitude <= 180.0


# --------------------------------------------------------------- generation


def test_n11_returns_default_regions_exactly():
    got = generate_regions(PlanetConfig(n_regions=11), seed=123)
    assert got == default_regions()


def test_generation_is_deterministic_in_config_and_seed():
    # 60 > len(ANCHORS), so the set includes seeded satellites.
    a = generate_regions(PlanetConfig(n_regions=60), seed=5)
    b = generate_regions(PlanetConfig(n_regions=60), seed=5)
    assert a == b
    c = generate_regions(PlanetConfig(n_regions=60), seed=6)
    assert a != c
    # At or below the anchor count the table alone decides the set.
    assert generate_regions(PlanetConfig(n_regions=40), seed=5) == \
        generate_regions(PlanetConfig(n_regions=40), seed=6)


def test_generated_regions_are_well_formed():
    cfg = PlanetConfig(n_regions=60)
    regions = generate_regions(cfg, seed=3)
    assert len(regions) == 60
    codes = [r.code for r in regions]
    assert len(set(codes)) == len(codes)
    # Anchors come first, in table order.
    n_anchor = min(60, len(ANCHORS))
    for anchor, region in zip(ANCHORS[:n_anchor], regions):
        assert region.code == anchor.code
    for r in regions:
        assert abs(r.latitude) <= cfg.max_abs_latitude + 1e-9
        assert -180.0 <= r.longitude <= 180.0
        assert r.pricing_tier in PRICING_TIERS


def test_satellite_separation_floor():
    """Generated satellites keep `min_separation_km` from every other
    region.  Anchors are real geography and exempt (Hong Kong and
    Shenzhen really are ~27 km apart) — but every pair must still be
    strictly separated, or `build_underlay` would reject the base latency."""
    cfg = PlanetConfig(n_regions=60)
    regions = generate_regions(cfg, seed=3)
    satellites = regions[min(60, len(ANCHORS)):]
    assert satellites, "n=60 must include generated satellites"
    for s in satellites:
        for other in regions:
            if other is not s:
                assert great_circle_km(s, other) >= cfg.min_separation_km
    for i, a in enumerate(regions):
        for b in regions[i + 1:]:
            assert great_circle_km(a, b) > 0.0


def test_satellites_inherit_anchor_attributes():
    regions = generate_regions(PlanetConfig(n_regions=50), seed=1)
    by_code = {a.code: a for a in ANCHORS}
    for sat in regions[len(ANCHORS):]:
        anchor = by_code[sat.code.rstrip("0123456789")]
        assert sat.continent == anchor.continent
        assert sat.utc_offset == anchor.utc_offset
        assert sat.pricing_tier == anchor.pricing_tier
        assert sat.name.startswith(anchor.name)


def test_config_validation():
    with pytest.raises(ValueError):
        PlanetConfig(n_regions=MIN_REGIONS - 1)
    with pytest.raises(ValueError):
        PlanetConfig(n_regions=MAX_REGIONS + 1)
    with pytest.raises(ValueError):
        PlanetConfig(satellite_min_deg=0.0)
    with pytest.raises(ValueError):
        PlanetConfig(satellite_spread_deg=0.5, satellite_min_deg=1.0)
    with pytest.raises(ValueError):
        PlanetConfig(min_separation_km=0.0)


# ------------------------------------------------------------------ pricing


def test_tier_fee_ranges_maps_codes():
    regions = generate_regions(PlanetConfig(n_regions=40), seed=2)
    ranges = tier_fee_ranges(regions)
    assert set(ranges) == {r.code for r in regions}
    for r in regions:
        assert ranges[r.code] == PRICING_TIERS[r.pricing_tier]


def test_tier_fee_ranges_rejects_unknown_tier():
    bogus = [Region("X", "XXX", 1.0, 2.0, 0.0, "Asia", "luxury")]
    with pytest.raises(ValueError, match="luxury"):
        tier_fee_ranges(bogus)


def test_tiered_fees_within_tier_and_normalised():
    u = build_planet_underlay(40, seed=3, underlay_config=UCFG)
    fees = u.pricing.all_internet_fees()
    by_code = {r.code: r for r in u.regions}
    for code, fee in fees.items():
        lo, hi = PRICING_TIERS[by_code[code].pricing_tier]
        assert lo <= fee <= hi + 1e-12
    # PricingConfig normalisation: the most expensive Internet fee is 1.
    assert max(fees.values()) == pytest.approx(1.0)


# --------------------------------------------------- golden N=11 equivalence


def test_n11_underlay_bit_identical_to_build_underlay():
    planet = build_planet_underlay(11, seed=4, underlay_config=UCFG)
    classic = build_underlay(default_regions(), UCFG, seed=4)
    assert planet.codes == classic.codes
    ps, cs = planet.snapshot(300.0), classic.snapshot(300.0)
    np.testing.assert_array_equal(ps.lat, cs.lat)
    np.testing.assert_array_equal(ps.loss, cs.loss)
    assert planet.pricing.all_internet_fees() == \
        classic.pricing.all_internet_fees()


def test_build_planet_underlay_accepts_config_object():
    u = build_planet_underlay(PlanetConfig(n_regions=12), seed=9,
                              underlay_config=UCFG)
    assert len(u.regions) == 12
    # Determinism end-to-end: same inputs, same link state.
    v = build_planet_underlay(12, seed=9, underlay_config=UCFG)
    np.testing.assert_array_equal(u.snapshot(100.0).lat,
                                  v.snapshot(100.0).lat)
