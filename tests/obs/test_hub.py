"""The process-wide telemetry hub: enable/disable/capture semantics."""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def clean_hub():
    """Every test starts and ends with a disabled, empty hub."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestDisabled:
    def test_disabled_hub_hands_out_the_registry_metrics(self):
        """`enabled` is the one off switch: call sites guard metric
        writes on it, and the hub's metrics are the registry's."""
        tel = obs.telemetry()
        assert tel.counter("x") is tel.metrics.counter("x")
        assert tel.gauge("g") is tel.metrics.gauge("g")
        assert (tel.histogram("h", (1.0,))
                is tel.metrics.histogram("h", (1.0,)))

    def test_disabled_writes_leave_no_state(self):
        tel = obs.telemetry()
        tel.event("failover", t=1.0)
        with tel.span("algo_step"):
            pass
        assert tel.metrics.snapshot() == {}
        assert tel.events_json() == []


class TestEnabled:
    def test_enable_collects(self):
        tel = obs.enable()
        tel.counter("c").inc(2)
        tel.event("failover", t=1.0, stream=3)
        assert tel.metrics.snapshot()["c"]["value"] == 2
        assert tel.events_json()[0]["kind"] == "failover"

    def test_singleton_identity_is_stable(self):
        # Cached handles (module-level _TEL in instrumented modules)
        # must observe enable/disable because the hub mutates in place.
        cached = obs.telemetry()
        assert obs.enable() is cached
        assert cached.enabled
        assert obs.disable() is cached
        assert not cached.enabled

    def test_reset_keeps_flag(self):
        tel = obs.enable()
        tel.counter("c").inc()
        obs.reset()
        assert tel.enabled
        assert tel.metrics.snapshot() == {}


class TestCapture:
    def test_capture_yields_fresh_enabled_hub(self):
        tel = obs.enable()
        tel.counter("stale").inc()
        with obs.capture() as hub:
            assert hub is tel
            assert hub.enabled
            assert "stale" not in hub.metrics.snapshot()
            hub.counter("fresh").inc()
            snap = hub.metrics.snapshot()
        assert snap == {"fresh": {"kind": "counter", "value": 1.0}}

    def test_capture_restores_disabled_flag(self):
        obs.disable()
        with obs.capture() as hub:
            hub.counter("c").inc()
        assert not obs.telemetry().enabled
        # Collected data survives the block for harvesting.
        assert obs.telemetry().metrics.snapshot()["c"]["value"] == 1

    def test_capture_restores_flag_on_exception(self):
        obs.disable()
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("boom")
        assert not obs.telemetry().enabled
