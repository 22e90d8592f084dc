"""Smoke test for the chaos-reaction experiment."""

import pytest

from repro.experiments import chaos_reaction


def _scenario(result, name):
    """The chaos result's scenario called `name`."""
    return next(s for s in result.scenarios if s.name == name)


@pytest.fixture(scope="module")
def result():
    return chaos_reaction.run(n_events=2)


def test_all_fault_classes_present(result):
    names = [s.name for s in result.scenarios]
    assert names == ["baseline", "controller-outage", "gateway-crash",
                     "probe-blackout", "report-drop", "install-chaos",
                     "provision-storm"]


def test_baseline_handles_everything_without_faults(result):
    baseline = _scenario(result, "baseline")
    assert baseline.fault_counters is None
    assert baseline.fault_injections == 0
    assert baseline.handled == baseline.injected == 2


def test_every_fault_scenario_actually_injected(result):
    for s in result.scenarios:
        if s.name == "baseline":
            continue
        assert s.fault_injections > 0, s.name


def test_controller_invisible_faults_keep_local_reaction(result):
    """§6.3: outages and NIB blindness must not cost the local loop."""
    baseline = _scenario(result, "baseline")
    for name in ("controller-outage", "report-drop"):
        scenario = _scenario(result, name)
        assert scenario.handled == baseline.handled, name
        assert scenario.mean_failover_s == pytest.approx(
            baseline.mean_failover_s), name


def test_expected_counters_per_scenario(result):
    expect = {"controller-outage": "epochs_skipped",
              "gateway-crash": "gateways_crashed",
              "probe-blackout": "probes_blacked_out",
              "report-drop": "reports_dropped",
              "install-chaos": "installs_truncated",
              "provision-storm": "load_spikes_applied"}
    for name, counter in expect.items():
        assert _scenario(result, name).fault_counters[counter] > 0, name


def test_blackout_delays_detection(result):
    """Losing the probing signal is the one fault that slows reaction."""
    baseline = _scenario(result, "baseline")
    blackout = _scenario(result, "probe-blackout")
    assert blackout.mean_failover_s > baseline.mean_failover_s


def test_lines_render(result):
    lines = result.lines()
    assert any("fault class" in line for line in lines)
    assert len(lines) > len(result.scenarios)
