"""Tests for the three-peak demand model."""

import numpy as np
import pytest

from repro.traffic.config import TrafficConfig
from repro.traffic.demand import DemandModel, three_peak_shape
from repro.underlay.regions import default_regions


class TestThreePeakShape:
    def test_peaks_at_configured_hours(self):
        cfg = TrafficConfig()
        h = np.linspace(0, 24, 2401)
        shape = three_peak_shape(h, cfg.peak_hours, cfg.peak_amps,
                                 cfg.peak_width_h)
        # Local maxima should be near 10, 16, 20.
        for peak in cfg.peak_hours:
            window = (h > peak - 0.5) & (h < peak + 0.5)
            assert shape[window].max() > 0.7 * max(cfg.peak_amps)

    def test_overnight_is_low(self):
        cfg = TrafficConfig()
        shape = three_peak_shape(np.array([3.0]), cfg.peak_hours,
                                 cfg.peak_amps, cfg.peak_width_h)
        assert shape[0] < 0.01

    def test_wraps_around_midnight(self):
        shape_a = three_peak_shape(np.array([23.9]), (0.1,), (1.0,), 1.0)
        shape_b = three_peak_shape(np.array([0.3]), (0.1,), (1.0,), 1.0)
        assert shape_a[0] > 0.9 and shape_b[0] > 0.9


class TestDemandModel:
    def test_rejects_single_region(self):
        with pytest.raises(ValueError):
            DemandModel(default_regions()[:1])

    def test_rates_positive(self, small_demand):
        t = np.arange(0, 86400, 300.0)
        for (a, b) in small_demand.pairs:
            assert np.all(small_demand.rate_mbps(a, b, t) > 0)

    def test_deterministic(self, small_regions):
        t = np.arange(0, 86400, 600.0)
        a = DemandModel(small_regions, seed=7)
        b = DemandModel(small_regions, seed=7)
        pair = a.pairs[0]
        np.testing.assert_array_equal(a.rate_mbps(*pair, t),
                                      b.rate_mbps(*pair, t))

    def test_seed_changes_rates(self, small_regions):
        t = np.arange(0, 86400, 600.0)
        a = DemandModel(small_regions, seed=7)
        b = DemandModel(small_regions, seed=8)
        pair = a.pairs[0]
        assert not np.allclose(a.rate_mbps(*pair, t), b.rate_mbps(*pair, t))

    def test_total_is_sum_of_pairs(self, small_demand):
        t = np.array([36000.0])
        total = small_demand.total_mbps(t)
        manual = sum(small_demand.rate_mbps(a, b, t)
                     for (a, b) in small_demand.pairs)
        np.testing.assert_allclose(total, manual)

    def test_pair_count(self, small_demand):
        n = len(small_demand.regions)
        assert len(small_demand.pairs) == n * (n - 1)

    def test_weekend_damped(self, small_demand):
        pair = small_demand.pairs[0]
        # Same time of day, weekday (day 2) vs weekend (day 5).
        weekday = float(small_demand.rate_mbps(*pair,
                                               2 * 86400.0 + 36000.0))
        weekend = float(small_demand.rate_mbps(*pair,
                                               5 * 86400.0 + 36000.0))
        assert weekend < weekday * 0.6

    def test_peak_trough_ratio_large(self):
        model = DemandModel(default_regions(), seed=3)
        t = np.arange(0, 86400, 60.0)
        total = model.total_mbps(t)
        assert total.max() / total.min() > 40  # paper: 145x

    def test_pair_peak_trough_ratio_larger(self):
        model = DemandModel(default_regions(), seed=3)
        t = np.arange(0, 86400, 60.0)
        pair = max(model.pairs, key=lambda p: model.pair_scale(*p))
        series = model.rate_mbps(*pair, t)
        assert series.max() / series.min() > 100  # paper: 247x

    def test_surges_jump_within_five_minutes(self):
        model = DemandModel(default_regions(), seed=3)
        t = np.arange(0, 86400, 300.0)
        jumps = []
        for (a, b) in model.pairs[:20]:
            series = model.rate_mbps(a, b, t)
            jumps.append(float(np.max(series[1:] / series[:-1])))
        assert max(jumps) > 2.0  # paper: 3.4x for the example pair

    def test_surges_recur_daily(self, small_demand):
        """The same weekday shows the surge at roughly the same time."""
        pair = small_demand.pairs[0]
        t_day1 = np.arange(0, 86400, 300.0)
        t_day2 = t_day1 + 86400.0
        d1 = small_demand.rate_mbps(*pair, t_day1)
        d2 = small_demand.rate_mbps(*pair, t_day2)
        # Correlated daily patterns (three peaks + recurring surges).
        corr = np.corrcoef(d1, d2)[0, 1]
        assert corr > 0.9

    def test_china_pairs_dominate(self):
        model = DemandModel(default_regions(), seed=3)
        heaviest = max(model.pairs, key=lambda p: model.pair_scale(*p))
        by_code = {r.code: r for r in model.regions}
        assert by_code[heaviest[0]].utc_offset == 8.0
        assert by_code[heaviest[1]].utc_offset == 8.0

    def test_noise_is_smooth_between_slots(self, small_demand):
        """Adjacent 5-minute slots do not jump tens of percent from noise."""
        pair = small_demand.pairs[0]
        # HGH/SIN overnight (UTC 17:00-21:00 is 01:00-05:00 local): the
        # diurnal shape is flat there, so noise dominates the series.
        t = np.arange(17 * 3600.0, 21 * 3600.0, 300.0)
        series = small_demand.rate_mbps(*pair, t)
        ratios = series[1:] / series[:-1]
        assert np.max(np.abs(np.log(ratios))) < 0.25

    def test_scale_lookup(self, small_demand):
        pair = small_demand.pairs[0]
        assert small_demand.pair_scale(*pair) > 0


#: A weekday morning, a weekend afternoon, an instant off every grid,
#: and one-minute steps through a busy weekday hour (surge ramps).
_ORACLE_INSTANTS = ([8 * 3600.0, 5 * 86400.0 + 15 * 3600.0, 123456.789]
                    + list(86400.0 + 2 * 3600.0 + np.arange(0, 3600, 60.0)))


class TestOneKernel:
    """`rate_mbps`, `rates_mbps` and `total_mbps` are one formula: any
    value is the same whichever call, and whatever else shares the call."""

    @pytest.fixture(scope="class")
    def model(self):
        return DemandModel(default_regions(), seed=3)

    def test_every_batch_row_equals_the_single_pair_call(self, model):
        for t in _ORACLE_INSTANTS:
            rows = model.rates_mbps(t)
            assert rows.shape == (len(model.pairs),)
            for row, (a, b) in zip(rows, model.pairs):
                assert row == float(model.rate_mbps(a, b, t))

    def test_series_elements_equal_single_instant_calls(self, model):
        t = np.array(_ORACLE_INSTANTS)
        for (a, b) in model.pairs[::7]:
            series = model.rate_mbps(a, b, t)
            assert series.shape == t.shape
            for k, tk in enumerate(t):
                assert series[k] == float(model.rate_mbps(a, b, tk))

    def test_surge_instants_are_covered(self, model):
        t = np.array(_ORACLE_INSTANTS)
        surging = sum(bool(np.any(model._surge_factor(
            slice(i, i + 1), t) > 1.0)) for i in range(len(model.pairs)))
        assert surging > 5

    def test_total_equals_the_pair_order_sum(self, model):
        t = np.array(_ORACLE_INSTANTS)
        total = np.zeros_like(t)
        for (a, b) in model.pairs:
            total = total + model.rate_mbps(a, b, t)
        np.testing.assert_array_equal(model.total_mbps(t), total)

    def test_total_does_not_depend_on_the_block_size(self, model,
                                                     monkeypatch):
        from repro.traffic import demand
        t = np.array(_ORACLE_INSTANTS)
        whole = model.total_mbps(t)
        monkeypatch.setattr(demand, "_BLOCK_ELEMENTS", 7 * t.size)
        np.testing.assert_array_equal(model.total_mbps(t), whole)

    def test_time_shapes_are_preserved(self, model):
        a, b = model.pairs[0]
        grid = np.array(_ORACLE_INSTANTS[:6]).reshape(2, 3)
        assert model.rate_mbps(a, b, grid).shape == (2, 3)
        assert model.total_mbps(grid).shape == (2, 3)
        assert np.ndim(model.rate_mbps(a, b, 3600.0)) == 0
        assert np.ndim(model.total_mbps(3600.0)) == 0

    def test_pairs_are_built_once(self, model):
        assert model.pairs is model.pairs
        assert model.pairs == [(a.code, b.code) for a in model.regions
                               for b in model.regions if a.code != b.code]

    def test_unknown_pair_is_a_key_error(self, model):
        with pytest.raises(KeyError):
            model.rate_mbps("HGH", "NOPE", 0.0)


class TestSurgesPerDay:
    def test_zero_means_no_surges(self, small_regions):
        model = DemandModel(small_regions,
                            TrafficConfig(surges_per_day=0), seed=5)
        t = np.arange(0, 86400, 60.0)  # day 0 is a weekday
        for i in range(len(model.pairs)):
            surge = model._surge_factor(slice(i, i + 1), t)
            assert surge.shape == (1, t.size)
            assert np.all(surge == 1.0)
        assert np.all(model.rates_mbps(36000.0) > 0)

    def test_default_still_surges(self, small_demand):
        t = np.arange(0, 86400, 60.0)
        assert any(np.any(small_demand._surge_factor(slice(i, i + 1), t)
                          > 1.0)
                   for i in range(len(small_demand.pairs)))

    def test_fractional_rates_keep_at_least_one_slot(self, small_regions):
        model = DemandModel(small_regions,
                            TrafficConfig(surges_per_day=0.3), seed=5)
        assert model._surge_start_s.shape == (len(model.pairs), 1)
