"""Tests for the cost ledger."""

import numpy as np
import pytest

from repro.cost.accounting import (GB_PER_MBPS_SECOND, CostLedger,
                                   PairCostLedger)
from repro.underlay.pricing import PricingModel
from repro.underlay.regions import default_regions


@pytest.fixture(scope="module")
def pricing():
    return PricingModel(default_regions(), np.random.default_rng(3))


@pytest.fixture()
def ledger(pricing):
    return CostLedger(pricing)


def test_volume_conversion_constant():
    # 8000 Mbps for one second is one GB.
    assert 8000.0 * 1.0 * GB_PER_MBPS_SECOND == pytest.approx(1.0)


def test_internet_volume_accumulates(ledger):
    ledger.add_internet_traffic("HGH", 100.0, 80.0)
    ledger.add_internet_traffic("HGH", 100.0, 80.0)
    assert ledger.internet_gb() == pytest.approx(2.0)


def test_premium_volume_accumulates(ledger):
    ledger.add_premium_traffic("HGH", "SIN", 400.0, 20.0)
    assert ledger.premium_gb() == pytest.approx(1.0)


def test_premium_share(ledger):
    ledger.add_internet_traffic("HGH", 800.0, 10.0)
    ledger.add_premium_traffic("HGH", "SIN", 800.0, 10.0 / 3)
    assert ledger.premium_traffic_share() == pytest.approx(0.25)


def test_premium_share_empty_ledger(ledger):
    assert ledger.premium_traffic_share() == 0.0


def test_breakdown_prices_by_fee(ledger, pricing):
    ledger.add_internet_traffic("HGH", 8000.0, 1.0)   # 1 GB
    ledger.add_premium_traffic("HGH", "SIN", 8000.0, 1.0)
    b = ledger.breakdown()
    assert b.internet_cost == pytest.approx(pricing.internet_fee("HGH"))
    assert b.premium_cost == pytest.approx(pricing.premium_fee("HGH", "SIN"))
    assert b.network_cost == pytest.approx(b.internet_cost + b.premium_cost)


def test_container_hours_priced(ledger, pricing):
    ledger.add_container_hours("HGH", 10.0)
    b = ledger.breakdown()
    assert b.container_cost == pytest.approx(pricing.container_cost(10.0))
    assert b.total == pytest.approx(b.network_cost + b.container_cost)


def test_negative_values_rejected(ledger):
    with pytest.raises(ValueError):
        ledger.add_internet_traffic("HGH", -1.0, 1.0)
    with pytest.raises(ValueError):
        ledger.add_premium_traffic("HGH", "SIN", 1.0, -1.0)
    with pytest.raises(ValueError):
        ledger.add_container_hours("HGH", -0.1)


class TestPairCostLedger:
    def test_pair_attribution(self, pricing):
        ledger = PairCostLedger(pricing)
        pair = ("HGH", "SIN")
        ledger.add_internet_traffic_for_pair(pair, "HGH", 8000.0, 1.0)
        ledger.add_premium_traffic_for_pair(pair, "HGH", "SIN", 8000.0, 1.0)
        cost = ledger.pair_cost(pair)
        expected = (pricing.internet_fee("HGH")
                    + pricing.premium_fee("HGH", "SIN"))
        assert cost == pytest.approx(expected)

    def test_relay_hops_attributed_to_stream_pair(self, pricing):
        ledger = PairCostLedger(pricing)
        pair = ("HGH", "SIN")
        # Relay via FRA: two Internet hops, both billed to the pair.
        ledger.add_internet_traffic_for_pair(pair, "HGH", 8000.0, 1.0)
        ledger.add_internet_traffic_for_pair(pair, "FRA", 8000.0, 1.0)
        expected = pricing.internet_fee("HGH") + pricing.internet_fee("FRA")
        assert ledger.pair_cost(pair) == pytest.approx(expected)

    def test_pairs_kept_separate(self, pricing):
        ledger = PairCostLedger(pricing)
        ledger.add_internet_traffic_for_pair(("HGH", "SIN"), "HGH", 800.0,
                                             10.0)
        ledger.add_internet_traffic_for_pair(("SIN", "HGH"), "SIN", 800.0,
                                             10.0)
        costs = ledger.all_pair_costs()
        assert set(costs) == {("HGH", "SIN"), ("SIN", "HGH")}

    def test_totals_match_base_ledger_semantics(self, pricing):
        ledger = PairCostLedger(pricing)
        ledger.add_internet_traffic_for_pair(("HGH", "SIN"), "HGH", 8000.0,
                                             1.0)
        assert ledger.internet_gb() == pytest.approx(1.0)
