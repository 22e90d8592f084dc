"""Tests for the extra ablation experiments."""

import pytest

from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import ORDERINGS, path_control
from repro.experiments import (ablation_ordering, ablation_probing,
                               ablation_stability, reaction_latency)
from repro.traffic.streams import Stream, VIDEO_PROFILES
from repro.underlay.linkstate import LinkType
from tests.snapshots import snapshot_of
from tests.tables import table_of


def test_path_control_rejects_unknown_ordering():
    state = snapshot_of(["A", "B"], lambda a, b, t: (100.0, 0.0))
    with pytest.raises(ValueError):
        path_control([], ["A", "B"], state, ControlConfig(),
                     ordering="nonsense")


def test_all_orderings_accepted():
    def links(a, b, t):
        return (100.0, 0.0001) if t is LinkType.INTERNET else (80.0, 0.0)

    state = snapshot_of(["A", "B", "C"], links)
    streams = table_of([Stream(1, "A", "B", 5.0, VIDEO_PROFILES[0])],
                       ["A", "B", "C"])
    for ordering in ORDERINGS:
        result = path_control(streams, ["A", "B", "C"], state,
                              ControlConfig(), gateways={"A": 4, "B": 4,
                                                         "C": 4},
                              ordering=ordering)
        assert result.total_assigned_mbps() == pytest.approx(5.0)


def test_ordering_ablation_smoke(full_underlay):
    result = ablation_ordering.run(full_underlay, n_epochs=2)
    assert set(result.outcomes) == {"latency_desc", "latency_asc",
                                    "demand_desc"}
    for lh, tot in result.outcomes.values():
        assert 0.0 <= lh <= 1.0
        assert 0.0 <= tot <= 1.0
    assert result.lines()


def test_probing_ablation_smoke(full_underlay):
    result = ablation_probing.run(full_underlay, window_s=3600.0,
                                  max_pairs=4,
                                  representative_counts=(1, 3))
    assert set(result.disagreement) == {1, 3}
    for v in result.disagreement.values():
        assert 0.0 <= v <= 1.0
    assert result.probe_streams[1] < result.probe_streams[3]
    assert result.lines()


def test_probing_ablation_more_reps_no_worse(full_underlay):
    result = ablation_probing.run(full_underlay, window_s=7200.0,
                                  max_pairs=6,
                                  representative_counts=(1, 5))
    assert result.disagreement[5] <= result.disagreement[1] + 0.02


def test_reaction_latency_smoke():
    result = reaction_latency.run(n_events=3, event_spacing_s=45.0)
    assert result.injected == 3
    assert result.detection_rate > 0.6
    assert result.mean_delay_s < 10.0
    assert result.lines()


def test_stability_ablation_smoke():
    result = ablation_stability.run(hours=0.5, eval_step_s=60.0)
    assert set(result.outcomes) == {"last sample", "robust p90"}
    for churn, stall, share in result.outcomes.values():
        assert 0.0 <= churn <= 1.0
        assert 0.0 <= stall <= 1.0
        assert 0.0 <= share <= 1.0
    assert result.lines()
