"""Summary aggregation and the ``repro obs`` CLI."""

from repro.cli import main as cli_main
from repro.obs.export import TELEMETRY_SCHEMA, TelemetryFile, write_jsonl
from repro.obs.summary import _estimate_quantile, render, summarize

HEADER = {"record": "header", "schema": TELEMETRY_SCHEMA, "suite": "quick"}


def _doc(events=(), metrics=()):
    return TelemetryFile(header=dict(HEADER), events=list(events),
                         metrics=list(metrics))


class TestSummarize:
    def test_counts_kinds_and_time_ranges(self):
        doc = _doc(events=[
            {"record": "event", "kind": "probe_round", "t": 10.0},
            {"record": "event", "kind": "probe_round", "t": 50.0},
            {"record": "event", "kind": "rep_election"},
        ])
        s = summarize(doc)
        assert s.total_events == 3
        assert s.kind_counts == {"probe_round": 2, "rep_election": 1}
        assert s.kind_time_range["probe_round"] == [10.0, 50.0]
        assert "rep_election" not in s.kind_time_range
        assert not s.empty

    def test_experiment_breakdown(self):
        doc = _doc(events=[
            {"record": "event", "kind": "failover", "exp": "fig16"},
            {"record": "event", "kind": "failover", "exp": "fig16"},
            {"record": "event", "kind": "autoscale", "exp": "fig20"},
        ])
        assert summarize(doc).exp_counts == {"fig16": 2, "fig20": 1}

    def test_counters_sum_across_records(self):
        doc = _doc(metrics=[
            {"record": "metrics", "metrics": {
                "a": {"kind": "counter", "value": 2.0}}},
            {"record": "metrics", "metrics": {
                "a": {"kind": "counter", "value": 3.0}}},
        ])
        assert summarize(doc).metrics["a"]["value"] == 5.0

    def test_gauges_last_write_wins(self):
        doc = _doc(metrics=[
            {"record": "metrics", "metrics": {
                "g": {"kind": "gauge", "value": 1.0}}},
            {"record": "metrics", "metrics": {
                "g": {"kind": "gauge", "value": 9.0}}},
        ])
        assert summarize(doc).metrics["g"]["value"] == 9.0

    def test_histograms_merge_count_and_sum(self):
        doc = _doc(metrics=[
            {"record": "metrics", "metrics": {
                "h": {"kind": "histogram", "count": 2, "sum": 4.0,
                      "min": 1.0, "max": 3.0}}},
            {"record": "metrics", "metrics": {
                "h": {"kind": "histogram", "count": 1, "sum": 5.0,
                      "min": 5.0, "max": 5.0}}},
        ])
        merged = summarize(doc).metrics["h"]
        assert merged["count"] == 3
        assert merged["sum"] == 9.0
        assert merged["max"] == 5.0

    def test_histograms_merge_buckets_and_overflow(self):
        doc = _doc(metrics=[
            {"record": "metrics", "metrics": {
                "h": {"kind": "histogram", "count": 3, "sum": 6.0,
                      "min": 0.5, "max": 5.0, "overflow": 1,
                      "buckets": [[1.0, 1], [4.0, 2]]}}},
            {"record": "metrics", "delta": True, "metrics": {
                "h": {"kind": "histogram", "count": 2, "sum": 2.0,
                      "min": 0.2, "max": 5.0, "overflow": 0,
                      "buckets": [[1.0, 2], [4.0, 2]]}}},
        ])
        merged = summarize(doc).metrics["h"]
        assert merged["count"] == 5
        assert merged["overflow"] == 1
        assert merged["buckets"] == [[1.0, 3], [4.0, 4]]
        assert merged["min"] == 0.2

    def test_histogram_min_max_ignore_empty_records(self):
        doc = _doc(metrics=[
            {"record": "metrics", "metrics": {
                "h": {"kind": "histogram", "count": 0, "sum": 0.0,
                      "min": 0.0, "max": 0.0}}},
            {"record": "metrics", "metrics": {
                "h": {"kind": "histogram", "count": 2, "sum": 14.0,
                      "min": 4.0, "max": 10.0}}},
        ])
        merged = summarize(doc).metrics["h"]
        # The empty first record's 0.0 min must not win.
        assert merged["min"] == 4.0
        assert merged["max"] == 10.0

    def test_empty_doc(self):
        assert summarize(_doc()).empty


class TestQuantileEstimates:
    SNAP = {"kind": "histogram", "count": 100, "sum": 0.0,
            "min": 0.1, "max": 42.0, "overflow": 2,
            "buckets": [[1.0, 50], [10.0, 90], [100.0, 98]]}

    def test_estimates_mirror_histogram_quantile(self):
        assert _estimate_quantile(self.SNAP, 0.5) == 1.0
        assert _estimate_quantile(self.SNAP, 0.9) == 10.0
        assert _estimate_quantile(self.SNAP, 0.95) == 100.0

    def test_overflow_rank_falls_back_to_observed_max(self):
        assert _estimate_quantile(self.SNAP, 0.999) == 42.0

    def test_no_buckets_no_estimate(self):
        assert _estimate_quantile({"kind": "histogram", "count": 5}, 0.5) \
            is None
        assert _estimate_quantile({"kind": "histogram", "count": 0,
                                   "buckets": [[1.0, 0]]}, 0.5) is None

    def test_render_shows_estimated_percentiles(self):
        doc = _doc(metrics=[{"record": "metrics",
                             "metrics": {"h": dict(self.SNAP)}}])
        text = "\n".join(render(summarize(doc)))
        assert "p50~1" in text
        assert "p95~100" in text
        assert "p99~42" in text  # rank 99 > last bucket: observed max

    def test_render_omits_percentiles_without_buckets(self):
        doc = _doc(metrics=[{"record": "metrics", "metrics": {
            "h": {"kind": "histogram", "count": 2, "sum": 4.0,
                  "min": 1.0, "max": 3.0}}}])
        text = "\n".join(render(summarize(doc)))
        assert "p50" not in text


class TestRender:
    def test_render_lists_kinds_by_count(self):
        doc = _doc(events=[
            {"record": "event", "kind": "probe_round", "t": 1.0},
            {"record": "event", "kind": "probe_round", "t": 2.0},
            {"record": "event", "kind": "failover", "t": 1.5},
        ], metrics=[{"record": "metrics", "metrics": {
            "c": {"kind": "counter", "value": 7.0}}}])
        text = "\n".join(render(summarize(doc)))
        assert "probe_round" in text
        assert "failover" in text
        assert text.index("probe_round") < text.index("failover")
        assert "c" in text and "counter" in text

    def test_metric_cap_is_reported(self):
        doc = _doc(metrics=[{"record": "metrics", "metrics": {
            f"m{i:02d}": {"kind": "counter", "value": 1.0}
            for i in range(5)}}])
        text = "\n".join(render(summarize(doc), max_metrics=2))
        assert "first 2 shown" in text
        assert "m04" not in text


class TestCli:
    def test_summary_renders_valid_file(self, tmp_path, capsys):
        path = write_jsonl(
            tmp_path / "t.jsonl",
            [{"kind": "failover", "seq": 1, "t": 3.0}],
            metrics={"c": {"kind": "counter", "value": 1.0}})
        assert cli_main(["obs", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "failover" in out

    def test_summary_rejects_missing_file(self, tmp_path, capsys):
        assert cli_main(["obs", "summary",
                         str(tmp_path / "absent.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_summary_rejects_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        assert cli_main(["obs", "summary", str(path)]) == 1

    def test_summary_rejects_empty_telemetry(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "empty.jsonl", [])
        assert cli_main(["obs", "summary", str(path)]) == 1
        assert "no events" in capsys.readouterr().err

    def test_summary_merges_multiple_paths(self, tmp_path, capsys):
        a = write_jsonl(tmp_path / "a.jsonl",
                        [{"kind": "failover", "seq": 1, "t": 1.0}],
                        metrics={"c": {"kind": "counter", "value": 2.0}})
        b = write_jsonl(tmp_path / "b.jsonl",
                        [{"kind": "autoscale", "seq": 1, "t": 2.0}],
                        metrics={"c": {"kind": "counter", "value": 3.0}})
        assert cli_main(["obs", "summary", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "failover" in out and "autoscale" in out
        assert "(2 total)" in out
        assert "5" in out  # the counters summed across files

    def test_summary_expands_globs(self, tmp_path, capsys):
        for i in range(3):
            write_jsonl(tmp_path / f"part.{i:05d}.jsonl",
                        [{"kind": "probe_round", "seq": 1, "t": float(i)}])
        pattern = str(tmp_path / "part.*.jsonl")
        assert cli_main(["obs", "summary", pattern]) == 0
        assert "(3 total)" in capsys.readouterr().out

    def test_summary_glob_without_match_errors(self, tmp_path, capsys):
        assert cli_main(["obs", "summary",
                         str(tmp_path / "nope.*.jsonl")]) == 1
        assert "no files match" in capsys.readouterr().err

    def test_summary_allow_partial_forgives_chopped_tail(self, tmp_path,
                                                         capsys):
        path = write_jsonl(tmp_path / "t.jsonl",
                           [{"kind": "failover", "seq": 1, "t": 1.0},
                            {"kind": "failover", "seq": 2, "t": 2.0}])
        text = path.read_text()
        path.write_text(text[:-10])
        assert cli_main(["obs", "summary", str(path)]) == 1
        capsys.readouterr()
        assert cli_main(["obs", "summary", "--allow-partial",
                         str(path)]) == 0
        assert "failover" in capsys.readouterr().out


class TestProfileCli:
    def _trace(self, tmp_path):
        return write_jsonl(
            tmp_path / "prof.jsonl",
            [{"kind": "algo_step", "seq": 1, "t": 0.0, "step": "predict",
              "duration_ms": 4.0},
             {"kind": "algo_step", "seq": 2, "t": 0.0,
              "step": "algo1.path_control", "duration_ms": 6.0},
             {"kind": "control_epoch", "seq": 3, "t": 0.0,
              "duration_ms": 11.0,
              "top_pairs": [["FRA", "SIN", 30.0], ["SIN", "HGH", 10.0]]}])

    def test_profile_renders_phase_table(self, tmp_path, capsys):
        assert cli_main(["obs", "profile", str(self._trace(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "algo1.path_control" in out
        assert "(all phases)" in out
        assert "FRA->SIN" in out

    def test_profile_max_pairs_caps_attribution(self, tmp_path, capsys):
        assert cli_main(["obs", "profile", "--max-pairs", "1",
                         str(self._trace(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "1 more pairs" in out

    def test_profile_errors_without_spans(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "plain.jsonl",
                           [{"kind": "failover", "seq": 1, "t": 1.0}])
        assert cli_main(["obs", "profile", str(path)]) == 1
        assert "no algo_step" in capsys.readouterr().err
