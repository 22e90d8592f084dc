"""Tracer and TraceEvent semantics."""

import enum
import json

import numpy as np
import pytest

from repro.obs.trace import KINDS, TraceEvent, Tracer


class TestRecord:
    def test_events_keep_order_and_sequence(self):
        tr = Tracer()
        tr.record("probe_round", t=1.0, region="FRA")
        tr.record("failover", t=2.0, stream=7)
        assert len(tr) == 2
        assert [e.seq for e in tr.events] == [1, 2]
        assert tr.events[0].fields["region"] == "FRA"

    def test_bounded_buffer_counts_drops(self):
        tr = Tracer(max_events=3)
        for i in range(5):
            tr.record("probe_round", i=i)
        assert len(tr) == 3
        assert tr.dropped == 2
        # The sequence counter keeps advancing through drops.
        assert tr._seq == 5

    def test_reset(self):
        tr = Tracer(max_events=1)
        tr.record("a")
        tr.record("b")
        tr.reset()
        assert len(tr) == 0 and tr.dropped == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Tracer(max_events=0)


class TestSpan:
    def test_span_records_duration(self):
        tr = Tracer()
        with tr.span("algo_step", t=5.0, step="algo1"):
            pass
        (event,) = tr.events
        assert event.kind == "algo_step"
        assert event.fields["step"] == "algo1"
        assert event.fields["duration_ms"] >= 0.0

    def test_span_records_even_on_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("algo_step"):
                raise RuntimeError("boom")
        assert len(tr) == 1


class TestSinks:
    def test_sinks_see_every_event_including_past_the_bound(self):
        tr = Tracer(max_events=2)
        seen = []
        tr.add_sink(seen.append)
        for i in range(5):
            tr.record("probe_round", i=i)
        assert len(tr) == 2 and tr.dropped == 3
        assert [e.fields["i"] for e in seen] == [0, 1, 2, 3, 4]

    def test_remove_sink_stops_delivery_and_tolerates_missing(self):
        tr = Tracer()
        seen = []
        tr.add_sink(seen.append)
        tr.record("a")
        tr.remove_sink(seen.append)
        tr.remove_sink(seen.append)  # already gone: no error
        tr.record("b")
        assert [e.kind for e in seen] == ["a"]

    def test_sinks_survive_reset(self):
        tr = Tracer()
        seen = []
        tr.add_sink(seen.append)
        tr.record("a")
        tr.reset()
        tr.record("b")
        assert [e.kind for e in seen] == ["a", "b"]

    def test_on_drop_hook_fires_per_dropped_event(self):
        tr = Tracer(max_events=1)
        drops = []
        tr.on_drop = lambda: drops.append(1)
        for __ in range(4):
            tr.record("x")
        assert len(drops) == 3

    def test_hub_counts_drops_as_a_metric(self):
        from repro.obs import Telemetry

        tel = Telemetry(enabled=True, max_events=3)
        for i in range(10):
            tel.event("probe_round", i=i)
        snap = tel.metrics.snapshot()
        assert snap["tracer.events_dropped"]["value"] == 7
        assert tel.tracer.dropped == 7


class TestJson:
    def test_event_json_roundtrips(self):
        e = TraceEvent("failover", 12.5, 1, {"stream": 3, "planned": True})
        doc = json.loads(json.dumps(e.to_json()))
        assert doc == {"kind": "failover", "seq": 1, "t": 12.5,
                       "stream": 3, "planned": True}

    def test_none_time_is_omitted(self):
        doc = TraceEvent("autoscale", None, 1, {}).to_json()
        assert "t" not in doc

    def test_field_coercion(self):
        class Tier(enum.Enum):
            PREMIUM = "premium"

        tr = Tracer()
        tr.record("path_decision", t=np.float64(1.0),
                  tier=Tier.PREMIUM, count=np.int64(3),
                  hops=("FRA", "SIN"), extra=object())
        doc = tr.to_json()[0]
        json.dumps(doc)  # everything must be serialisable
        assert doc["tier"] == "premium"
        assert doc["count"] == 3
        assert doc["hops"] == ["FRA", "SIN"]
        assert isinstance(doc["extra"], str)

    def test_catalog_covers_builtin_instrumentation(self):
        # Sanity: the documented catalog holds the kinds this PR emits.
        for kind in ("probe_round", "rep_election", "path_decision",
                     "failover", "failback", "control_epoch", "algo_step",
                     "autoscale", "controller_outage"):
            assert kind in KINDS
