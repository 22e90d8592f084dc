"""Smoke test for the partition-tolerance experiment."""

import pytest

from repro.experiments import partition
from repro.experiments.registry import get


def _row(report, scenario, mode):
    """The report's row of one (scenario, mode)."""
    return next(r for r in report.rows
                if (r.scenario, r.mode) == (scenario, mode))


@pytest.fixture(scope="module")
def report():
    return partition.run(partition_epochs=4, post_epochs=3)


def test_scenario_and_mode_grid(report):
    grid = {(r.scenario, r.mode) for r in report.rows}
    assert grid == {("partition-blackhole", "off"),
                    ("partition-blackhole", "on"),
                    ("membership-churn", "off"),
                    ("membership-churn", "on")}


def test_degraded_mode_collapses_intra_partition_blackholing(report):
    off = _row(report, "partition-blackhole", "off")
    on = _row(report, "partition-blackhole", "on")
    assert off.intra_blackholed_s > 0
    assert on.intra_blackholed_s == 0.0
    assert on.intra_blackholed_s < off.intra_blackholed_s


def test_degraded_mode_reconciles_cleanly_on_heal(report):
    on = _row(report, "partition-blackhole", "on")
    assert on.pcounter("partitions_started") == 1
    assert on.pcounter("partitions_healed") == 1
    assert on.pcounter("regional_installs_rejected") == 0
    assert on.pcounter("reconcile_fences") == 1
    assert on.reconverge_epochs >= 1
    assert on.heal_flaps >= 1


def test_churn_only_bites_with_membership_armed(report):
    off = _row(report, "membership-churn", "off")
    on = _row(report, "membership-churn", "on")
    assert off.mcounter("expiries") == 0
    assert on.mcounter("expiries") > 0
    assert on.mcounter("regions_demoted") > 0


def test_off_rows_carry_no_partition_counters(report):
    off = _row(report, "partition-blackhole", "off")
    assert off.partition_counters is None
    assert off.pcounter("partitions_started") == 0


def test_lines_render(report):
    lines = report.lines()
    assert any("partition-blackhole" in line for line in lines)
    assert any("membership-churn" in line for line in lines)


def test_registered_in_the_experiment_registry():
    spec = get("partition")
    assert spec.name == "partition"
    assert "robustness" in spec.tags
    assert spec.quick_kwargs["partition_epochs"] < \
        spec.full_kwargs["partition_epochs"]
