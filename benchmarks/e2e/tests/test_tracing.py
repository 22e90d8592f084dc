"""Span arithmetic and the wrap/restore machinery."""

import pytest

from benchmarks.e2e.tracing import (LAYERS, SPAN_NAMES, WRAPS, Tracer,
                                    install, wrapped_owner)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _span(tracer, clock, name, duration, children=(), store=True):
    """Open `name`, run `children` (each a thunk), let `duration` pass."""
    frame = tracer.enter(name, store)
    for child in children:
        child()
    clock.now += duration
    tracer.exit(frame)


def test_self_time_with_nested_and_sibling_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.timed = True
    # core.run = 1 s own + probe (2 s own + two link_eval siblings of
    # 0.5 s each) + a sibling epoch of 4 s.
    leaf = lambda: _span(tracer, clock, "underlay.link_eval", 0.5,  # noqa
                         store=False)
    probe = lambda: _span(tracer, clock, "dataplane.probe_round", 2.0,  # noqa
                          children=(leaf, leaf))
    epoch = lambda: _span(tracer, clock, "controlplane.run_epoch",  # noqa
                          4.0)
    _span(tracer, clock, "core.run", 1.0, children=(probe, epoch))

    rows = tracer.by_name()
    assert rows["core.run"]["busy_s"] == pytest.approx(8.0)
    assert rows["core.run"]["self_s"] == pytest.approx(1.0)
    assert rows["dataplane.probe_round"]["busy_s"] == pytest.approx(3.0)
    assert rows["dataplane.probe_round"]["self_s"] == pytest.approx(2.0)
    assert rows["underlay.link_eval"]["calls"] == 2
    assert rows["underlay.link_eval"]["busy_s"] == pytest.approx(1.0)
    assert rows["controlplane.run_epoch"]["self_s"] == pytest.approx(4.0)
    # Self times partition the top-level span exactly.
    layers = tracer.layer_self_s()
    assert sum(layers.values()) == pytest.approx(8.0)
    assert layers == pytest.approx({"core": 1.0, "dataplane": 2.0,
                                    "underlay": 1.0, "controlplane": 4.0})
    # Hot leaves are aggregated per parent, not stored.
    assert [s[0] for s in tracer.spans] == [
        "core.run", "dataplane.probe_round", "controlplane.run_epoch"]
    assert tracer.agg[("dataplane.probe_round", "underlay.link_eval")][0] == 2
    # Stored spans know their parent.
    assert tracer.spans[1][3] == 0 and tracer.spans[2][3] == 0
    assert tracer.durations("controlplane.run_epoch") == [pytest.approx(4.0)]
    assert tracer.durations("controlplane.run_epoch",
                            exclude_parent="core.run") == []


def test_spans_outside_the_timed_region_do_not_count_towards_shares():
    clock = FakeClock()
    tracer = Tracer(clock)
    _span(tracer, clock, "underlay.build", 3.0)          # set-up
    tracer.timed = True
    _span(tracer, clock, "core.run", 2.0)
    assert tracer.by_name()["underlay.build"]["busy_s"] == pytest.approx(3.0)
    assert tracer.layer_self_s() == pytest.approx({"underlay": 0.0,
                                                   "core": 2.0})


def test_reentrant_same_name_call_is_one_span():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.enter("cost.ledger_add", False)
    assert tracer.enter("cost.ledger_add", False) is None
    clock.now += 1.0
    tracer.exit(outer)
    assert tracer.by_name()["cost.ledger_add"]["calls"] == 1


class _Sample:
    def method(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return [x]

    @staticmethod
    def helper(x):
        return x * 2


def test_wrap_preserves_descriptors_counts_results_and_restores():
    tracer = Tracer()
    raw = dict(_Sample.__dict__)
    tracer.wrap(_Sample, "method", "a.method")
    tracer.wrap(_Sample, "make", "a.make", on_result=len,
                count_name="a.make.items")
    tracer.wrap(_Sample, "helper", "a.helper", store=False)
    assert _Sample().method(1) == 2
    assert _Sample.make(5) == [5] and _Sample().make(6) == [6]
    assert _Sample.helper(4) == 8
    rows = tracer.by_name()
    assert rows["a.method"]["calls"] == 1 and rows["a.make"]["calls"] == 2
    assert tracer.counts == {"a.make.items": 2}
    tracer.restore()
    tracer.restore()  # idempotent
    for attr in ("method", "make", "helper"):
        assert _Sample.__dict__[attr] is raw[attr]


def test_wrapper_closes_its_span_when_the_call_raises():
    class Boom:
        def go(self):
            raise ValueError("x")

    tracer = Tracer()
    tracer.wrap(Boom, "go", "a.go")
    with pytest.raises(ValueError):
        Boom().go()
    tracer.restore()
    assert tracer.by_name()["a.go"]["calls"] == 1
    assert tracer._stack == []


def _wrapped_attributes():
    return [(wrapped_owner(wrap), wrap.attr) for wrap in WRAPS]


def test_install_wraps_every_boundary_and_restore_puts_them_back():
    def current(owner, attr):
        return (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))

    before = [current(o, a) for o, a in _wrapped_attributes()]
    tracer = Tracer()
    install(tracer)
    try:
        during = [current(o, a) for o, a in _wrapped_attributes()]
        assert all(d is not b for d, b in zip(during, before))
    finally:
        tracer.restore()
    after = [current(o, a) for o, a in _wrapped_attributes()]
    assert all(a is b for a, b in zip(after, before))


def test_span_names_cover_the_layers_named_by_the_issue():
    assert LAYERS == ["underlay", "traffic", "dataplane", "controlplane",
                      "elastic", "resilience", "faults", "obs", "core",
                      "cost", "qoe"]
    for name in ("underlay.build", "underlay.snapshot", "underlay.link_eval",
                 "traffic.from_model", "traffic.decompose",
                 "dataplane.probe_round", "dataplane.flush_passive",
                 "dataplane.install", "dataplane.resolve",
                 "dataplane.aggregate", "dataplane.path_series",
                 "dataplane.burst_series", "controlplane.run_epoch",
                 "controlplane.nib_update", "controlplane.link_snapshot",
                 "controlplane.path_control", "controlplane.capacity_control",
                 "controlplane.reaction_plans", "controlplane.predict",
                 "controlplane.membership", "controlplane.regional_epoch",
                 "elastic.scale_to", "elastic.ready_count",
                 "resilience.validate", "resilience.checkpoint_take",
                 "resilience.checkpoint_dumps", "faults.queries", "obs.event",
                 "obs.flush_stream", "obs.slo_observe", "core.run",
                 "core.envelope_write", "core.heartbeat", "cost.ledger_add",
                 "qoe.summary"):
        assert name in SPAN_NAMES
    assert len(SPAN_NAMES) == 35
