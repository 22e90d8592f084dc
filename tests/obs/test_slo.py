"""Per-stream SLO engine: burn rates, hysteresis, causal annotation."""

import pytest

from repro import obs
from repro.obs.slo import CAUSE_WINDOW_S, SLOEngine, SLOTarget
from repro.qoe.metrics import qoe_badness


def _events(hub, kind):
    """The trace events of one kind a telemetry hub recorded."""
    return [e for e in hub.tracer.events if e.kind == kind]


@pytest.fixture(autouse=True)
def clean_hub():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


#: Quick-breach target: 10s window, any bad sample in the window burns
#: 10x budget, recovery at half-burn, two samples arm the window.
TARGET = SLOTarget(latency_ms=400.0, loss_rate=0.05, window_s=10.0,
                   error_budget=0.5, breach_burn=1.0, recover_burn=0.4,
                   min_samples=2)


def _engine(**kwargs):
    return SLOEngine(TARGET, **kwargs)


class TestTargetValidation:
    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            SLOTarget(window_s=0.0)

    def test_rejects_bad_error_budget(self):
        with pytest.raises(ValueError):
            SLOTarget(error_budget=0.0)
        with pytest.raises(ValueError):
            SLOTarget(error_budget=1.5)

    def test_rejects_inverted_hysteresis(self):
        with pytest.raises(ValueError):
            SLOTarget(breach_burn=1.0, recover_burn=1.0)

    def test_rejects_zero_min_samples(self):
        with pytest.raises(ValueError):
            SLOTarget(min_samples=0)


class TestBurnAndHysteresis:
    def test_breach_after_min_samples_only(self):
        hub = obs.enable()
        engine = _engine(hub=hub)
        engine.observe("a->b", 0.0, 9000.0, 0.0)  # bad, but 1 sample
        assert not engine.streams["a->b"].in_breach
        engine.observe("a->b", 1.0, 9000.0, 0.0)
        assert engine.streams["a->b"].in_breach
        (breach,) = _events(hub, "slo_breach")
        assert breach.fields["stream"] == "a->b"
        assert breach.fields["burn_rate"] == 2.0  # 100% bad / 0.5 budget
        engine.close()

    def test_good_samples_recover_with_hysteresis(self):
        hub = obs.enable()
        engine = _engine(hub=hub)
        for i in range(4):
            engine.observe("a->b", float(i), 9000.0, 0.0)
        assert engine.streams["a->b"].in_breach
        # Burn must fall to <= 0.4 * budget — bad samples age out of the
        # 10s window while good ones accumulate.
        t = 4.0
        while engine.streams["a->b"].in_breach:
            engine.observe("a->b", t, 10.0, 0.0)
            t += 1.0
            assert t < 60.0, "never recovered"
        (rec,) = _events(hub, "slo_recovered")
        assert rec.fields["duration_s"] > 0
        ledger = engine.streams["a->b"]
        assert ledger.breaches == 1
        assert ledger.breach_seconds == pytest.approx(
            rec.fields["duration_s"])
        engine.close()

    def test_blackholed_samples_are_always_bad(self):
        engine = _engine()
        for i in range(3):
            engine.observe("a->b", float(i), blackholed=True)
        ledger = engine.streams["a->b"]
        assert ledger.in_breach
        assert ledger.blackhole_samples == 3
        assert ledger.bad_samples == 3
        engine.close()

    def test_custom_badness_predicate_wins(self):
        # Threshold says 100ms is fine; the predicate says otherwise.
        engine = _engine(badness=lambda lat, loss: lat > 50.0)
        engine.observe("a->b", 0.0, 100.0, 0.0)
        engine.observe("a->b", 1.0, 100.0, 0.0)
        assert engine.streams["a->b"].in_breach
        engine.close()

    def test_qoe_badness_classifier_plugs_in(self):
        engine = _engine(badness=qoe_badness())
        engine.observe("a->b", 0.0, 9000.0, 0.9)
        engine.observe("a->b", 1.0, 9000.0, 0.9)
        assert engine.streams["a->b"].bad_samples == 2
        engine.observe("c->d", 0.0, 50.0, 0.0)
        assert engine.streams["c->d"].bad_samples == 0
        engine.close()


class TestCausalAnnotation:
    def test_breach_names_the_nearest_fault(self):
        hub = obs.enable()
        engine = _engine(hub=hub)
        hub.event("fault_probe_blackout", t=5.0, region="SIN", fault_id=3)
        engine.observe("a->b", 6.0, 9000.0, 0.0)
        engine.observe("a->b", 7.0, 9000.0, 0.0)
        (breach,) = _events(hub, "slo_breach")
        assert breach.fields["cause_kind"] == "fault_probe_blackout"
        assert breach.fields["cause_t"] == 5.0
        assert breach.fields["cause_fault_id"] == 3
        assert breach.fields["cause_region"] == "SIN"
        engine.close()

    def test_fault_ids_list_feeds_the_annotation(self):
        hub = obs.enable()
        engine = _engine(hub=hub)
        hub.event("fault_probe_blackout", t=5.0, fault_ids=[2, 4])
        engine.observe("a->b", 6.0, 9000.0, 0.0)
        engine.observe("a->b", 7.0, 9000.0, 0.0)
        (breach,) = _events(hub, "slo_breach")
        assert breach.fields["cause_fault_id"] == 2
        engine.close()

    def test_stale_faults_outside_the_window_are_not_blamed(self):
        hub = obs.enable()
        engine = _engine(hub=hub)
        hub.event("fault_gateway_crash", t=5.0, fault_id=1)
        late = 5.0 + CAUSE_WINDOW_S + 1.0
        engine.observe("a->b", late, 9000.0, 0.0)
        engine.observe("a->b", late + 1.0, 9000.0, 0.0)
        (breach,) = _events(hub, "slo_breach")
        assert "cause_kind" not in breach.fields
        engine.close()

    def test_future_faults_are_never_blamed(self):
        hub = obs.enable()
        engine = _engine(hub=hub)
        hub.event("fault_gateway_crash", t=50.0, fault_id=1)
        engine.observe("a->b", 6.0, 9000.0, 0.0)
        engine.observe("a->b", 7.0, 9000.0, 0.0)
        (breach,) = _events(hub, "slo_breach")
        assert "cause_kind" not in breach.fields
        engine.close()

    def test_recovery_names_the_nearest_remedy(self):
        hub = obs.enable()
        engine = _engine(hub=hub)
        for i in range(4):
            engine.observe("a->b", float(i), 9000.0, 0.0)
        hub.event("failover", t=4.5, stream=1)
        t = 5.0
        while engine.streams["a->b"].in_breach:
            engine.observe("a->b", t, 10.0, 0.0)
            t += 1.0
        (rec,) = _events(hub, "slo_recovered")
        assert rec.fields["remedy_kind"] == "failover"
        assert rec.fields["remedy_t"] == 4.5
        engine.close()

    def test_own_slo_events_are_not_remembered_as_causes(self):
        hub = obs.enable()
        engine = _engine(hub=hub)
        for i in range(4):
            engine.observe("a->b", float(i), 9000.0, 0.0)
        assert _events(hub, "slo_breach")
        assert not engine._causes  # the sink ignores slo_* events
        engine.close()


class TestPassivity:
    def test_disabled_hub_keeps_ledgers_but_emits_nothing(self):
        hub = obs.telemetry()
        assert not hub.enabled
        engine = _engine(hub=hub)
        for i in range(4):
            engine.observe("a->b", float(i), 9000.0, 0.0)
        assert engine.streams["a->b"].in_breach  # accounting still runs
        assert len(hub.tracer) == 0              # but no events/metrics
        assert "slo.breaches" not in hub.metrics
        engine.close()

    def test_metrics_emitted_while_enabled(self):
        hub = obs.enable()
        engine = _engine(hub=hub)
        for i in range(4):
            engine.observe("a->b", float(i), 9000.0, 0.0)
        t = 4.0
        while engine.streams["a->b"].in_breach:
            engine.observe("a->b", t, 10.0, 0.0)
            t += 1.0
        snap = hub.metrics.snapshot()
        assert snap["slo.breaches"]["value"] == 1
        assert snap["slo.recoveries"]["value"] == 1
        assert snap["slo.streams_in_breach"]["value"] == 0
        assert snap["slo.breach_duration_s"]["count"] == 1
        engine.close()

    def test_close_is_idempotent_and_unhooks(self):
        hub = obs.enable()
        engine = _engine(hub=hub)
        engine.close()
        engine.close()
        hub.event("fault_gateway_crash", t=1.0)
        assert not engine._causes


class TestReport:
    def test_report_keys_sorted_and_json_ready(self):
        import json

        engine = _engine()
        engine.observe("b->c", 0.0, 10.0, 0.0)
        engine.observe("a->b", 0.0, 9000.0, 0.0)
        doc = engine.report()
        assert list(doc) == ["a->b", "b->c"]
        json.dumps(doc)
        assert doc["a->b"]["bad_samples"] == 1
        engine.close()

    def test_render_mentions_breach_state(self):
        engine = _engine()
        for i in range(4):
            engine.observe("a->b", float(i), 9000.0, 0.0)
        text = "\n".join(engine.render_report())
        assert "a->b" in text and "IN BREACH" in text
        engine.close()

    def test_render_empty_engine(self):
        engine = _engine()
        assert "(no streams observed)" in "\n".join(engine.render_report())
        engine.close()
