"""Tests for the multi-day simulation driver."""

import numpy as np
import pytest

from repro.core import longrun
from repro.core.config import SimulationConfig
from repro.core.longrun import run_multi_day
from repro.core.variants import premium_only, xron
from repro.underlay.regions import default_regions


def _three_regions():
    by_code = {r.code: r for r in default_regions()}
    return [by_code[c] for c in ("HGH", "SIN", "FRA")]


@pytest.fixture
def small_regions(monkeypatch):
    """Multi-day runs over three regions, not the planet's eleven."""
    monkeypatch.setattr(longrun, "default_regions", _three_regions)


@pytest.fixture(scope="module")
def two_days():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(longrun, "default_regions", _three_regions)
        return run_multi_day(
            2, xron(), seed=4,
            sim_config=SimulationConfig(epoch_s=1800.0, eval_step_s=120.0,
                                        seed=4))


def test_one_summary_per_day(two_days):
    assert [d.day for d in two_days.daily] == [0, 1]


def test_summaries_are_sane(two_days):
    for d in two_days.daily:
        assert 0.0 <= d.qoe.stall_ratio <= 1.0
        assert d.latency_p999_ms >= d.latency_p99_ms > 0
        assert 0.0 <= d.premium_share <= 1.0
        assert d.mean_containers >= 1.0
        assert d.network_cost > 0


def test_series_accessors(two_days):
    stall = two_days.series("stall_ratio")
    churn = two_days.series("route_churn")
    assert stall.shape == churn.shape == (2,)
    assert two_days.mean("premium_share") == pytest.approx(
        float(two_days.series("premium_share").mean()))


def test_rejects_zero_days():
    with pytest.raises(ValueError):
        run_multi_day(0)


def test_deterministic(small_regions):
    kwargs = dict(seed=5,
                  sim_config=SimulationConfig(epoch_s=1800.0,
                                              eval_step_s=300.0, seed=5))
    a = run_multi_day(2, xron(), **kwargs)
    b = run_multi_day(2, xron(), **kwargs)
    np.testing.assert_array_equal(a.series("stall_ratio"),
                                  b.series("stall_ratio"))
    np.testing.assert_array_equal(a.series("network_cost"),
                                  b.series("network_cost"))


def test_days_have_different_link_conditions(small_regions):
    """Per-day underlays differ, so daily outcomes are not identical."""
    result = run_multi_day(
        2, premium_only(), seed=6,
        sim_config=SimulationConfig(epoch_s=1800.0, eval_step_s=300.0,
                                    seed=6))
    # Even premium-only sees (slightly) different daily tails.
    p999 = result.series("latency_p999_ms")
    assert p999[0] != p999[1]


def test_pricing_shared_across_days(small_regions):
    """Costs are comparable day to day (same fee tables)."""
    result = run_multi_day(
        2, xron(), seed=7,
        sim_config=SimulationConfig(epoch_s=1800.0, eval_step_s=300.0,
                                    seed=7))
    costs = result.series("network_cost")
    # Weekday demand is similar day to day; wildly different costs would
    # indicate re-drawn pricing.
    assert costs.max() / costs.min() < 3.0
