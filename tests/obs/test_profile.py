"""Phase profiler: span folding, coverage, attribution."""

import pytest

from repro.obs.profile import profile_events, render


def _step(step, ms, t=0.0):
    return {"kind": "algo_step", "seq": 1, "t": t, "step": step,
            "duration_ms": ms}


def _epoch(ms, t=0.0, top_pairs=None):
    doc = {"kind": "control_epoch", "seq": 2, "t": t, "duration_ms": ms}
    if top_pairs is not None:
        doc["top_pairs"] = top_pairs
    return doc


class TestFolding:
    def test_totals_counts_and_means_across_epochs(self):
        events = [_step("predict", 10.0), _epoch(30.0),
                  _step("predict", 20.0), _epoch(40.0)]
        profile = profile_events(events)
        assert profile.epochs == 2
        assert profile.epoch_wall_ms == 70.0
        (phase,) = profile.phases
        assert phase.step == "predict"
        assert phase.count == 2
        assert phase.total_ms == 30.0
        assert phase.mean_ms == 15.0

    def test_every_phase_is_top_level(self):
        """Phases are summed side by side, in first-seen order, whatever
        their names."""
        events = [_step("snapshot_build", 8.0),
                  _step("link_snapshot", 10.0), _epoch(20.0)]
        profile = profile_events(events)
        assert [p.step for p in profile.phases] == ["snapshot_build",
                                                    "link_snapshot"]
        assert profile.phase_total_ms == 18.0
        assert profile.coverage == pytest.approx(0.9)

    def test_coverage_against_epoch_wall(self):
        events = [_step("predict", 30.0), _step("algo1.path_control", 50.0),
                  _epoch(100.0)]
        profile = profile_events(events)
        assert profile.phase_total_ms == 80.0
        assert profile.coverage == pytest.approx(0.8)

    def test_empty_events_give_empty_profile(self):
        profile = profile_events([])
        assert profile.phases == []
        assert profile.epochs == 0
        assert profile.coverage == 0.0

    def test_non_span_events_ignored(self):
        events = [{"kind": "failover", "seq": 1, "t": 0.0},
                  _step("predict", 5.0), _epoch(6.0)]
        assert len(profile_events(events).phases) == 1


class TestPairAttribution:
    def test_algo1_time_apportioned_by_demand_share(self):
        events = [_step("algo1.path_control", 100.0),
                  _epoch(120.0, top_pairs=[["FRA", "SIN", 75.0],
                                           ["SIN", "HGH", 25.0]])]
        profile = profile_events(events)
        assert profile.pair_share_ms[("FRA", "SIN")] == pytest.approx(75.0)
        assert profile.pair_share_ms[("SIN", "HGH")] == pytest.approx(25.0)
        assert sum(profile.pair_share_ms.values()) == pytest.approx(100.0)

    def test_pairs_accumulate_across_epochs(self):
        events = [_step("algo1.path_control", 10.0),
                  _epoch(12.0, top_pairs=[["FRA", "SIN", 10.0]]),
                  _step("algo1.path_control", 30.0),
                  _epoch(32.0, top_pairs=[["FRA", "SIN", 10.0],
                                          ["SIN", "HGH", 10.0]])]
        profile = profile_events(events)
        assert sum(profile.pair_share_ms.values()) == pytest.approx(40.0)
        assert profile.pair_share_ms[("FRA", "SIN")] > \
            profile.pair_share_ms[("SIN", "HGH")]

    def test_no_top_pairs_no_attribution(self):
        events = [_step("algo1.path_control", 10.0), _epoch(12.0)]
        assert profile_events(events).pair_share_ms == {}


class TestRender:
    def test_table_lists_phases_and_coverage(self):
        events = [_step("predict", 30.0), _step("algo1.path_control", 50.0),
                  _epoch(100.0, top_pairs=[["FRA", "SIN", 10.0]])]
        text = "\n".join(render(profile_events(events)))
        assert "predict" in text
        assert "algo1.path_control" in text
        assert "(all phases)" in text
        assert "80.0%" in text
        assert "FRA->SIN" in text

    def test_phases_render_unindented(self):
        events = [_step("snapshot_build", 4.0),
                  _step("link_snapshot", 10.0), _epoch(12.0)]
        lines = render(profile_events(events))
        (line,) = [ln for ln in lines if "snapshot_build" in ln]
        assert line.startswith("snapshot_build ")
        assert "self ms" not in "\n".join(lines)

    def test_max_pairs_cap_reported(self):
        pairs = [[f"R{i:02d}", "SIN", 1.0] for i in range(12)]
        events = [_step("algo1.path_control", 12.0),
                  _epoch(14.0, top_pairs=pairs)]
        text = "\n".join(render(profile_events(events), max_pairs=10))
        assert "2 more pairs" in text

