"""Integration tests for the epoch simulator."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.system import XRONSystem
from repro.core.variants import (internet_only, premium_only, xron,
                                 xron_basic)
from repro.underlay.config import UnderlayConfig


@pytest.fixture(scope="module")
def small_system(small_regions):
    return XRONSystem(
        regions=list(small_regions), seed=3,
        underlay_config=UnderlayConfig(horizon_s=11 * 3600.0),
        sim_config=SimulationConfig(epoch_s=300.0, eval_step_s=10.0, seed=3))


# `small_regions` is session-scoped; re-export it at module scope for the
# module-scoped system fixture.
@pytest.fixture(scope="module")
def small_regions():
    from repro.underlay.regions import default_regions
    by_code = {r.code: r for r in default_regions()}
    return [by_code[c] for c in ("HGH", "SIN", "FRA", "IAD")]


@pytest.fixture(scope="module")
def xron_result(small_system):
    return small_system.run(variant=xron(), start_hour=8.0, hours=1.0)


class TestShapes:
    def test_array_dimensions(self, xron_result, small_system):
        n_pairs = len(small_system.underlay.pairs)
        n_steps = int(3600.0 / 10.0)
        n_epochs = 12
        assert xron_result.latency_ms.shape == (n_pairs, n_steps)
        assert xron_result.loss_rate.shape == (n_pairs, n_steps)
        assert xron_result.on_backup.shape == (n_pairs, n_steps)
        assert xron_result.demand_mbps.shape == (n_pairs, n_epochs)
        assert xron_result.containers.shape == (4, n_epochs)

    def test_times_grid(self, xron_result):
        assert xron_result.times[0] == 8.0 * 3600.0
        np.testing.assert_allclose(np.diff(xron_result.times), 10.0)

    def test_pair_index(self, xron_result):
        idx = xron_result.pair_index("HGH", "SIN")
        assert xron_result.pairs[idx] == ("HGH", "SIN")

    def test_sample_weights_shape(self, xron_result):
        w = xron_result.sample_weights()
        assert w.shape == xron_result.latency_ms.shape
        assert np.all(w >= 0)


class TestPhysicalSanity:
    def test_latencies_positive(self, xron_result):
        assert np.all(xron_result.latency_ms > 0)

    def test_losses_in_unit_interval(self, xron_result):
        assert np.all(xron_result.loss_rate >= 0)
        assert np.all(xron_result.loss_rate <= 1)

    def test_demand_recorded_positive(self, xron_result):
        assert np.all(xron_result.demand_mbps > 0)

    def test_containers_at_least_one(self, xron_result):
        assert np.all(xron_result.containers >= 1)

    def test_cost_ledger_populated(self, xron_result):
        b = xron_result.ledger.breakdown()
        assert b.network_cost > 0
        assert b.container_cost > 0  # overlay variants bill containers

    def test_hop_samples_recorded(self, xron_result):
        assert xron_result.normal_hop_samples
        hops = [h for h, __ in xron_result.normal_hop_samples]
        assert all(1 <= h <= 3 for h in hops)


class TestVariantBehaviour:
    def test_internet_only_uses_no_premium(self, small_system):
        res = small_system.run(variant=internet_only(), start_hour=8.0,
                               hours=0.5)
        assert res.ledger.premium_gb() == 0.0
        assert not res.on_backup.any()
        # No overlay: no gateway containers billed.
        assert res.ledger.breakdown().container_cost == 0.0

    def test_premium_only_uses_no_internet(self, small_system):
        res = small_system.run(variant=premium_only(), start_hour=8.0,
                               hours=0.5)
        assert res.ledger.internet_gb() == 0.0
        assert res.premium_traffic_share() == 1.0

    def test_xron_basic_never_on_backup(self, small_system):
        res = small_system.run(variant=xron_basic(), start_hour=8.0,
                               hours=0.5)
        assert not res.on_backup.any()

    def test_xron_reaction_produces_backups_eventually(self, small_system):
        res = small_system.run(variant=xron(), start_hour=8.0, hours=1.0)
        # With natural degradation rates, an hour over 12 pairs sees some
        # reaction activity.
        assert res.backup_fraction() >= 0.0  # may be tiny but well-defined
        assert res.premium_traffic_share() < 0.9

    def test_deterministic_across_runs(self, small_regions):
        def run_once():
            system = XRONSystem(
                regions=list(small_regions), seed=7,
                underlay_config=UnderlayConfig(horizon_s=2 * 3600.0),
                sim_config=SimulationConfig(epoch_s=300.0, eval_step_s=30.0,
                                            seed=7))
            return system.run(variant=xron(), start_hour=0.0, hours=0.5)

        a, b = run_once(), run_once()
        np.testing.assert_array_equal(a.latency_ms, b.latency_ms)
        np.testing.assert_array_equal(a.on_backup, b.on_backup)


class TestEvalGrid:
    """Each epoch's grid restarts at the epoch's start, so the eval step
    must divide the epoch: else the grid overruns the epoch's rows (9 s)
    or its labels drift a second an epoch (7 s)."""

    @pytest.mark.parametrize("step", [9.0, 7.0])
    def test_a_step_that_does_not_divide_the_epoch_is_refused(
            self, small_system, step):
        from repro.core.simulator import EpochSimulator
        config = SimulationConfig(epoch_s=300.0, eval_step_s=step, seed=3)
        with pytest.raises(ValueError, match=f"epoch_s 300 s .* "
                                             f"eval_step_s {step:g} s"):
            EpochSimulator(small_system.underlay, small_system.demand,
                           xron(), config)

    def test_a_dividing_step_labels_every_epoch_from_its_start(
            self, small_system):
        from repro.core.simulator import EpochSimulator
        config = SimulationConfig(epoch_s=300.0, eval_step_s=12.0, seed=3)
        with EpochSimulator(small_system.underlay, small_system.demand,
                            xron(), config) as simulator:
            result = simulator.run(8 * 3600.0, 900.0)
        assert result.latency_ms.shape == (len(result.pairs), 75)
        np.testing.assert_array_equal(result.times[::25],
                                      result.epoch_starts)
        np.testing.assert_array_equal(np.diff(result.times), 12.0)


class TestResultAnalytics:
    def test_percentile_tables(self, xron_result):
        lat = xron_result.latency_percentiles()
        assert lat["average"] > 0
        assert lat["99.9%"] >= lat["99%"] >= lat["95%"]
        loss = xron_result.loss_percentiles()
        assert loss["99.9%"] >= loss["95%"]

    def test_qoe_summary(self, xron_result):
        q = xron_result.qoe_summary()
        assert 0 <= q.stall_ratio <= 1
        assert 0 < q.mean_fps <= 25.0
        assert 1 <= q.mean_fluency <= 5

    def test_qoe_per_day_partitions_samples(self, xron_result):
        days = xron_result.qoe_per_day()
        assert sum(d.samples for d in days) == xron_result.latency_ms.size


class TestRouteChurn:
    def test_churn_recorded_per_epoch(self, xron_result):
        churn = xron_result.path_change_fraction
        assert churn.shape == (12,)
        assert churn[0] == 0.0
        assert np.all((churn >= 0.0) & (churn <= 1.0))
        assert 0.0 <= xron_result.mean_route_churn() <= 1.0

    def test_direct_variant_has_zero_churn(self, small_system):
        res = small_system.run(variant=internet_only(), start_hour=8.0,
                               hours=0.5)
        assert res.mean_route_churn() == 0.0


class TestMonitoringPush:
    """`_push_reports` draws an epoch's measurement noise as one block;
    the per-link formulation it replaced drew two scalars per
    representative per link.  Same generator, same draws, same order."""

    @pytest.mark.parametrize("representatives", [1, 2, 3])
    def test_block_draw_equals_the_scalar_loop(self, small_system,
                                               representatives):
        from dataclasses import replace

        from repro.dataplane.config import MonitoringConfig
        from repro.sim.rng import RngStreams
        from repro.underlay.linkstate import LinkType
        from repro.underlay.snapshot import TYPE_ORDER
        config = replace(
            small_system.sim_config,
            monitoring=MonitoringConfig(representatives=representatives))
        underlay = small_system.underlay
        now = 9 * 3600.0
        rng = RngStreams(config.seed).get("monitor.noise")
        snap = underlay.snapshot(now)
        expected = {}
        for lt in TYPE_ORDER:
            for (src, dst) in underlay.pairs:
                true_lat, true_loss = snap.lookup(src, dst, lt)
                measured = [
                    (true_lat * float(rng.uniform(0.97, 1.03)),
                     min(max(true_loss * float(rng.uniform(0.8, 1.2)), 0.0),
                         1.0))
                    for __ in range(representatives)]
                expected[(src, dst, lt)] = (
                    float(np.median([m[0] for m in measured])),
                    float(np.median([m[1] for m in measured])), now)

        from repro.core.simulator import EpochSimulator
        with EpochSimulator(underlay, small_system.demand, xron(),
                            config) as simulator:
            simulator._push_reports(now)
            nib = simulator.controller.nib
            got = {(d["src"], d["dst"], LinkType(d["link_type"])):
                   (d["latency_ms"], d["loss_rate"], d["reported_at"])
                   for d in nib.export_reports()}
            assert got == expected
            assert nib.version == len(expected)
            # The block left the stream where the scalar loop leaves it.
            assert (simulator._streams.get("monitor.noise")
                    .bit_generator.state == rng.bit_generator.state)
