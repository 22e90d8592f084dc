"""Tests for the §5.2 objective evaluation."""

import numpy as np
import pytest

from repro.controlplane.model import ControlConfig
from repro.controlplane.objective import evaluate_objective
from repro.controlplane.pathcontrol import path_control
from repro.traffic.streams import Stream, VIDEO_PROFILES
from repro.underlay.config import PricingConfig
from repro.underlay.linkstate import LinkType
from repro.underlay.pricing import PricingModel
from repro.underlay.regions import default_regions
from tests.snapshots import snapshot_of
from tests.tables import table_of

CODES = [r.code for r in default_regions()[:3]]


@pytest.fixture(scope="module")
def pricing():
    return PricingModel(default_regions()[:3], PricingConfig(),
                        np.random.default_rng(2))


def _links(a, b, t):
    if t is LinkType.INTERNET:
        return (100.0, 0.0001)
    return (80.0, 0.00001)


_state = snapshot_of(CODES, _links)


def _result(mbps=100.0, pricing=None, **cfg):
    config = ControlConfig(**cfg)
    streams = table_of(
        [Stream(1, CODES[0], CODES[1], mbps, VIDEO_PROFILES[2])], CODES)
    gateways = {c: 4 for c in CODES}
    result = path_control(streams, CODES, _state, config,
                          gateways=gateways, fees=pricing)
    return result, config, gateways


def test_util_lat_normalised_by_limit(pricing):
    result, config, gateways = _result(pricing=pricing)
    obj = evaluate_objective(result, _state, config, pricing, gateways)
    a = result.assignments[0]
    limit = config.latency_limit_ms(80.0)
    assert obj.util_lat == pytest.approx(a.latency_ms / limit)


def test_util_cost_contains_containers(pricing):
    result, config, gateways = _result(pricing=pricing)
    obj = evaluate_objective(result, _state, config, pricing, gateways,
                             epoch_s=3600.0)
    container_part = pricing.container_cost(sum(gateways.values()))
    assert obj.util_cost >= container_part


def test_traffic_cost_scales_with_demand(pricing):
    small, config, gws = _result(mbps=10.0, pricing=pricing)
    large, __, __ = _result(mbps=100.0, pricing=pricing)
    o_small = evaluate_objective(small, _state, config, pricing, gws)
    o_large = evaluate_objective(large, _state, config, pricing, gws)
    # Container part is fixed; the traffic part must scale ~10x.
    fixed = pricing.container_cost(sum(gws.values()) * 300.0 / 3600.0)
    assert (o_large.util_cost - fixed) == pytest.approx(
        10 * (o_small.util_cost - fixed), rel=1e-6)


def test_empty_result_costs_only_containers(pricing):
    config = ControlConfig()
    result = path_control(table_of([], CODES), CODES, _state, config,
                          gateways={c: 2 for c in CODES}, fees=pricing)
    obj = evaluate_objective(result, _state, config, pricing,
                             {c: 2 for c in CODES}, epoch_s=3600.0)
    assert obj.util_lat == 0.0
    assert obj.util_cost == pytest.approx(pricing.container_cost(6.0))


def test_weight_sweep_trade_off(full_underlay):
    """The ablation's core claim: buying latency costs money."""
    from repro.experiments import ablation_weights
    sweep = ablation_weights.run(full_underlay,
                                 exchange_rates=(0.0, 120.0), n_epochs=1)
    free, expensive = sweep.points[0.0], sweep.points[120.0]
    assert free[0] <= expensive[0]      # lower latency when cost is free
    assert free[1] >= expensive[1]      # but a (much) bigger bill
    assert free[2] > expensive[2]       # because it buys premium links
