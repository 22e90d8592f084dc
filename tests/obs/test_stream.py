"""Streaming JSONL exporter: rotation, deltas, crash tolerance."""

import json

import pytest

from repro import obs
from repro.obs import trace
from repro.obs.export import TelemetryFormatError, read_jsonl, read_many
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import TelemetryStream
from repro.obs.summary import summarize
from repro.obs.trace import TraceEvent, Tracer


@pytest.fixture(autouse=True)
def clean_hub():
    obs.disable()
    obs.reset()
    yield
    hub = obs.telemetry()
    if hub.stream is not None:
        hub.detach_stream(close=True)
    obs.disable()
    obs.reset()


def _event(seq, kind="probe_round", t=None, **fields):
    return TraceEvent(kind, t, seq, fields)


class TestParts:
    def test_each_part_carries_its_own_header(self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=1024)
        stream.write_event(_event(1, t=1.0))
        stream.close()
        (path,) = stream.paths
        assert path.name == "run.00000.jsonl"
        header = json.loads(path.read_text().splitlines()[0])
        assert header["record"] == "header"
        assert header["stream"] == "run"
        assert header["part"] == 0

    def test_meta_lands_in_every_header(self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=1024,
                                 meta={"command": "demo"})
        big = "x" * 600
        for i in range(6):
            stream.write_event(_event(i + 1, payload=big))
        stream.close()
        assert len(stream.paths) >= 2
        for path in stream.paths:
            header = json.loads(path.read_text().splitlines()[0])
            assert header["command"] == "demo"

    def test_rotation_respects_max_bytes(self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=2048)
        for i in range(100):
            stream.write_event(_event(i + 1, t=float(i), payload="y" * 40))
        stream.close()
        assert stream.rotations >= 1
        assert len(stream.paths) == stream.rotations + 1
        for path in stream.paths:
            assert path.stat().st_size <= 2048

    def test_parts_sort_lexicographically_in_emission_order(self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=1100)
        for i in range(40):
            stream.write_event(_event(i + 1, payload="z" * 60))
        stream.close()
        assert [p.name for p in stream.paths] == \
            sorted(p.name for p in stream.paths)
        seqs = []
        for path in sorted(tmp_path.glob("run.*.jsonl")):
            doc = read_jsonl(path)
            seqs.extend(e["seq"] for e in doc.events)
        assert seqs == sorted(seqs) == list(range(1, 41))

    def test_oversized_record_lands_instead_of_rotating_forever(
            self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=1024)
        stream.write_event(_event(1, payload="w" * 5000))
        stream.write_event(_event(2, payload="w" * 5000))
        stream.close()
        # Each oversized record gets its own part; none is lost.
        assert len(stream.paths) == 2
        total = sum(len(read_jsonl(p).events) for p in stream.paths)
        assert total == 2

    def test_read_many_merges_rotated_parts(self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=1100)
        for i in range(30):
            stream.write_event(_event(i + 1, payload="q" * 60))
        stream.close()
        assert len(stream.paths) >= 2
        doc = read_many(stream.paths)
        assert len(doc.events) == 30
        assert doc.header["files"] == len(stream.paths)

    def test_rejects_tiny_rotation_budget(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryStream(tmp_path / "run.jsonl", max_bytes=100)

    def test_write_after_close_is_noop(self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=1024)
        stream.close()
        stream.write_event(_event(1))
        stream.close()  # idempotent
        assert stream.events_written == 0


class TestCrashSafety:
    def test_truncated_tail_readable_with_allow_partial(self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=65536)
        for i in range(5):
            stream.write_event(_event(i + 1, t=float(i)))
        stream.close()
        (path,) = stream.paths
        # Simulate a crash mid-write: chop the final line in half.
        text = path.read_text()
        path.write_text(text[:len(text) - 20])
        with pytest.raises(TelemetryFormatError):
            read_jsonl(path)
        doc = read_jsonl(path, allow_partial_tail=True)
        assert len(doc.events) == 4


class TestDeltaMetrics:
    def test_counter_deltas_rebuild_the_total(self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=65536)
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        assert stream.flush_metrics(reg) is True
        reg.counter("c").inc(4)
        assert stream.flush_metrics(reg) is True
        stream.close()
        doc = read_jsonl(stream.paths[0])
        assert [m["metrics"]["c"]["value"] for m in doc.metrics] == [3, 4]
        assert all(m["delta"] for m in doc.metrics)
        assert summarize(doc).metrics["c"]["value"] == 7

    def test_unchanged_registry_writes_nothing(self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=65536)
        reg = MetricsRegistry()
        reg.counter("c").inc()
        assert stream.flush_metrics(reg) is True
        assert stream.flush_metrics(reg) is False
        assert stream.metrics_flushes == 1
        stream.close()

    def test_gauge_delta_is_last_write_wins(self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=65536)
        reg = MetricsRegistry()
        reg.gauge("g").set(5.0)
        stream.flush_metrics(reg)
        reg.gauge("g").set(2.0)
        stream.flush_metrics(reg)
        stream.close()
        doc = read_jsonl(stream.paths[0])
        assert summarize(doc).metrics["g"]["value"] == 2.0

    def test_histogram_bucket_deltas_rebuild_cumulative(self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=65536)
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 10.0, 100.0))
        h.observe(0.5)
        h.observe(5.0)
        stream.flush_metrics(reg)
        h.observe(50.0)
        h.observe(500.0)  # overflow
        stream.flush_metrics(reg)
        stream.close()
        merged = summarize(read_jsonl(stream.paths[0])).metrics["h"]
        assert merged["count"] == 4
        assert merged["overflow"] == 1
        assert merged["buckets"] == h.snapshot()["buckets"]
        assert merged["max"] == 500.0

    def test_registry_reset_resets_the_baseline(self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=65536)
        reg = MetricsRegistry()
        reg.counter("c").inc(10)
        stream.flush_metrics(reg)
        reg.reset()  # generation bump: new capture window
        reg.counter("c").inc(2)
        stream.flush_metrics(reg)
        stream.close()
        doc = read_jsonl(stream.paths[0])
        # Never a negative delta: 10 then 2, not 10 then -8.
        assert [m["metrics"]["c"]["value"] for m in doc.metrics] == [10, 2]

    def test_flush_stamps_sim_time(self, tmp_path):
        stream = TelemetryStream(tmp_path / "run.jsonl", max_bytes=65536)
        reg = MetricsRegistry()
        reg.counter("c").inc()
        stream.flush_metrics(reg, t=123.456)
        stream.close()
        doc = read_jsonl(stream.paths[0])
        assert doc.metrics[0]["t"] == 123.456


class TestHubIntegration:
    def test_attached_stream_sees_every_event(self, tmp_path):
        hub = obs.enable()
        stream = hub.attach_stream(tmp_path / "live.jsonl")
        hub.event("failover", t=1.0, stream=7)
        hub.counter("c").inc()
        hub.flush_stream(t=2.0)
        hub.detach_stream(close=True)
        doc = read_jsonl(stream.paths[0])
        assert doc.events[0]["kind"] == "failover"
        assert doc.metrics[0]["metrics"]["c"]["value"] == 1

    def test_second_attach_rejected(self, tmp_path):
        hub = obs.enable()
        hub.attach_stream(tmp_path / "a.jsonl")
        with pytest.raises(RuntimeError):
            hub.attach_stream(tmp_path / "b.jsonl")
        hub.detach_stream(close=True)

    def test_stream_keeps_events_past_the_tracer_bound(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(trace, "MAX_EVENTS", 3)
        tracer = Tracer()
        stream = TelemetryStream(tmp_path / "b.jsonl", max_bytes=65536)
        tracer.add_sink(stream.write_event)
        for i in range(10):
            tracer.record("probe_round", i=i)
        stream.close()
        assert len(tracer.events) == 3 and tracer.dropped == 7
        # The stream holds the complete record.
        assert len(read_jsonl(stream.paths[0]).events) == 10

    def test_capture_refuses_an_attached_stream(self, tmp_path):
        hub = obs.enable()
        ambient = hub.attach_stream(tmp_path / "outer.jsonl")
        hub.event("failover", t=1.0)
        with pytest.raises(RuntimeError, match="stream attached"):
            with obs.capture():
                pytest.fail("the window opened")
        assert hub.stream is ambient  # untouched, still live
        assert hub.enabled and len(hub.tracer.events) == 1
        hub.event("failback", t=3.0)
        hub.detach_stream(close=True)
        kinds = [e["kind"] for e in read_jsonl(ambient.paths[0]).events]
        assert kinds == ["failover", "failback"]

    def test_stream_attached_inside_capture_is_finalized(self, tmp_path):
        with obs.capture() as hub:
            stream = hub.attach_stream(tmp_path / "inner.jsonl")
            hub.event("failover", t=1.0)
            hub.counter("c").inc(2)
        assert stream.closed
        assert obs.telemetry().stream is None
        doc = read_jsonl(stream.paths[0])
        assert doc.events[0]["kind"] == "failover"
        assert doc.metrics[0]["metrics"]["c"]["value"] == 2
