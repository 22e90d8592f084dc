"""Tests for paths and the §5.2 problem model."""

import pytest

from repro.controlplane.model import (LATENCY_LIMIT_FLOOR_MS,
                                     LATENCY_LIMIT_STRETCH, OverlayPath,
                                     latency_limit_ms)
from repro.underlay.linkstate import LinkType
from tests.controlplane.route_oracle import path_loss_rate
from tests.snapshots import snapshot_of

I = LinkType.INTERNET
P = LinkType.PREMIUM


def _state(lat_map, loss_map=None):
    loss_map = loss_map or {}

    def state(a, b, t):
        return (lat_map.get((a, b, t), 100.0),
                loss_map.get((a, b, t), 0.0))
    return snapshot_of(["A", "B", "C"], state)


class TestOverlayPath:
    def test_direct(self):
        p = OverlayPath.direct("A", "B", I)
        assert p.regions[0] == "A" and p.dst == "B"
        assert p.hops == (("A", "B", I),)
        assert p.regions == ("A", "B")

    def test_via(self):
        p = OverlayPath.via(["A", "B", "C"], P)
        assert p.hops == (("A", "B", P), ("B", "C", P))
        assert p.regions == ("A", "B", "C")

    def test_via_needs_two_regions(self):
        with pytest.raises(ValueError):
            OverlayPath.via(["A"], I)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            OverlayPath(())

    def test_disconnected_hops_rejected(self):
        with pytest.raises(ValueError):
            OverlayPath((("A", "B", I), ("C", "D", I)))

    def test_mixed_link_types(self):
        p = OverlayPath((("A", "B", I), ("B", "C", P)))
        assert [t for __, __, t in p.hops] == [I, P]
        assert p.regions == ("A", "B", "C")

    def test_pure_internet_does_not_use_premium(self):
        assert all(t is I for __, __, t in
                   OverlayPath.via(["A", "B", "C"], I).hops)


class TestPathMetrics:
    def test_latency_sums_hops(self):
        state = _state({("A", "B", I): 50.0, ("B", "C", I): 70.0})
        p = OverlayPath.via(["A", "B", "C"], I)
        assert state.path_latency_ms(p) == pytest.approx(120.0)

    def test_loss_compounds(self):
        state = _state({}, {("A", "B", I): 0.1, ("B", "C", I): 0.2})
        p = OverlayPath.via(["A", "B", "C"], I)
        assert path_loss_rate(state, p) == pytest.approx(1 - 0.9 * 0.8)

    def test_zero_loss(self):
        p = OverlayPath.direct("A", "B", I)
        assert path_loss_rate(_state({}), p) == 0.0

    def test_loss_of_lossless_plus_lossy(self):
        state = _state({}, {("A", "B", I): 0.0, ("B", "C", I): 0.5})
        p = OverlayPath.via(["A", "B", "C"], I)
        assert path_loss_rate(state, p) == pytest.approx(0.5)


class TestControlConfig:
    def test_latency_limit_floor(self):
        assert (LATENCY_LIMIT_FLOOR_MS, LATENCY_LIMIT_STRETCH) == (400.0, 1.6)
        assert latency_limit_ms(100.0) == 400.0

    def test_latency_limit_stretch_for_far_pairs(self):
        assert (LATENCY_LIMIT_FLOOR_MS, LATENCY_LIMIT_STRETCH) == (400.0, 1.6)
        assert latency_limit_ms(300.0) == pytest.approx(480.0)
