"""Metric primitive and registry semantics."""

import pytest

from repro.obs.metrics import (DEFAULT_BUCKETS, NULL_COUNTER, NULL_GAUGE,
                               NULL_HISTOGRAM, Counter, Gauge, Histogram,
                               HotCounters, MetricsRegistry)
from repro.obs.summary import _estimate_quantile


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_snapshot(self):
        c = Counter("x")
        c.inc(3)
        assert c.snapshot() == {"kind": "counter", "value": 3}


class TestGauge:
    def test_snapshot(self):
        g = Gauge("x")
        g.set(1.5)
        assert g.snapshot() == {"kind": "gauge", "value": 1.5}


class TestHistogram:
    def test_requires_increasing_buckets(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("x", buckets=())

    def test_observe_fills_buckets_and_stats(self):
        h = Histogram("x", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.total == 3
        assert h.sum == pytest.approx(55.5)
        assert h.min == pytest.approx(0.5)
        assert h.max == pytest.approx(50.0)
        assert h.mean == pytest.approx(55.5 / 3)

    def test_snapshot_has_cumulative_buckets(self):
        h = Histogram("x", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["kind"] == "histogram"
        assert snap["count"] == 4
        # Cumulative [bound, count-at-or-below] pairs + overflow.
        assert snap["buckets"] == [[1.0, 2], [10.0, 3]]
        assert snap["overflow"] == 1

    def test_quantile_bucket_resolution(self):
        h = Histogram("x", buckets=(1.0, 2.0, 4.0))
        for v in (0.5,) * 50 + (1.5,) * 40 + (3.0,) * 10:
            h.observe(v)
        # As `repro obs summary` estimates it from the snapshot.
        assert _estimate_quantile(h.snapshot(), 0.5) == 1.0
        assert _estimate_quantile(h.snapshot(), 0.99) == 4.0

    def test_empty_histogram(self):
        h = Histogram("x", buckets=(1.0,))
        assert h.total == 0
        assert h.mean == 0.0
        assert _estimate_quantile(h.snapshot(), 0.5) is None


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_histogram_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_snapshot_is_sorted_and_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        reg.histogram("h", buckets=DEFAULT_BUCKETS).observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)  # must not raise

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.snapshot() == {}


class TestHotCounters:
    """The generation-aware handle cache used inside hot loops."""

    def test_fetch_resolves_once_per_generation(self):
        reg = MetricsRegistry()
        hot = HotCounters("a", "b")
        first = hot.fetch(reg)
        assert first == (reg.counter("a"), reg.counter("b"))
        assert hot.fetch(reg) is first  # cached tuple, no re-resolve
        first[0].inc(2)
        assert reg.counter("a").value == 2

    def test_reset_invalidates_the_cache(self):
        reg = MetricsRegistry()
        hot = HotCounters("a")
        (stale,) = hot.fetch(reg)
        stale.inc(5)
        reg.reset()
        (fresh,) = hot.fetch(reg)
        assert fresh is not stale
        fresh.inc(1)
        # The stale handle is orphaned: it no longer reaches the
        # registry, so the pre-reset count cannot leak into it.
        assert reg.counter("a").value == 1

    def test_survives_repeated_reset_enable_cycles(self):
        """The orchestrator's per-experiment pattern: capture() resets
        the registry between runs; each window must start from zero and
        end with exactly its own increments."""
        reg = MetricsRegistry()
        hot = HotCounters("loop.iterations")
        for cycle in range(3):
            reg.reset()
            for __ in range(cycle + 1):
                (c,) = hot.fetch(reg)
                c.inc()
            assert reg.counter("loop.iterations").value == cycle + 1

    def test_cache_shared_across_registries_by_generation_only(self):
        # Two registries can disagree on generation; the cache keys on
        # the number, so hand a HotCounters to ONE registry for life.
        reg = MetricsRegistry()
        hot = HotCounters("a")
        hot.fetch(reg)
        reg.reset()
        reg.counter("a").inc(3)
        (handle,) = hot.fetch(reg)
        assert handle.value == 3

    def test_hub_hot_counters_respect_capture_windows(self):
        """End to end through the facade: a HotCounters cached between
        two capture() windows must not carry counts across."""
        from repro import obs

        hot = HotCounters("hot.ticks")
        with obs.capture() as first:
            hot.fetch(first.metrics)[0].inc(7)
            assert first.metrics.counter("hot.ticks").value == 7
        with obs.capture() as second:
            hot.fetch(second.metrics)[0].inc(1)
            assert second.metrics.counter("hot.ticks").value == 1
        obs.disable()
        obs.reset()


class TestNullMetrics:
    """The disabled-telemetry fast path: all writes are no-ops."""

    def test_null_counter_ignores_inc(self):
        NULL_COUNTER.inc(100)
        assert NULL_COUNTER.value == 0

    def test_null_gauge_ignores_set(self):
        NULL_GAUGE.set(5.0)
        assert NULL_GAUGE.value == 0.0

    def test_null_histogram_ignores_observe(self):
        NULL_HISTOGRAM.observe(3.0)
        assert NULL_HISTOGRAM.total == 0
