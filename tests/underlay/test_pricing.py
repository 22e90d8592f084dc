"""Tests for the egress pricing model."""

import numpy as np
import pytest

from repro.underlay.pricing import PricingModel
from repro.underlay.regions import default_regions


@pytest.fixture(scope="module")
def pricing():
    return PricingModel(default_regions(), np.random.default_rng(3))


def test_internet_fees_within_configured_range(pricing):
    fees = pricing.all_internet_fees()
    assert all(0.35 <= f <= 1.0 for f in fees.values())


def test_one_region_at_normalisation_ceiling(pricing):
    assert max(pricing.all_internet_fees().values()) == pytest.approx(1.0)


def test_premium_fee_exceeds_internet_fee(pricing):
    for (src, dst), fee in pricing.all_premium_fees().items():
        assert fee > pricing.internet_fee(src)


def test_premium_ratio_median_near_paper(pricing):
    ratios = pricing.premium_to_internet_ratios()
    assert 6.5 < np.median(ratios) < 8.5  # paper: 7.6x
    assert ratios.max() < 11.4 + 1e-9     # paper max: 11.4x
    assert ratios.min() >= 4.5 - 1e-9


def test_premium_fees_cover_all_ordered_pairs(pricing):
    n = len(default_regions())
    assert len(pricing.all_premium_fees()) == n * (n - 1)


def test_unknown_region_raises(pricing):
    with pytest.raises(KeyError):
        pricing.internet_fee("NOPE")
    with pytest.raises(KeyError):
        pricing.premium_fee("NOPE", "HGH")


def test_container_cost_scales_linearly(pricing):
    assert pricing.container_cost(2.0) == pytest.approx(
        2 * pricing.container_cost(1.0))


def test_container_cost_rejects_negative(pricing):
    with pytest.raises(ValueError):
        pricing.container_cost(-1.0)


def test_deterministic_given_seed():
    a = PricingModel(default_regions(), np.random.default_rng(5))
    b = PricingModel(default_regions(), np.random.default_rng(5))
    assert a.all_internet_fees() == b.all_internet_fees()
    assert a.all_premium_fees() == b.all_premium_fees()


def test_fees_differ_across_regions(pricing):
    fees = list(pricing.all_internet_fees().values())
    assert len(set(round(f, 6) for f in fees)) > 1
