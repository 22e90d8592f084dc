"""Tests for the windowed NIB and robust link-state planning: the
window length is the one knob (1 = last report, more = its p90)."""

import pytest

from repro.controlplane.controller import Controller
from repro.controlplane.nib import (ROBUST_PERCENTILE, LinkReport,
                                    NetworkInformationBase)
from repro.underlay.linkstate import LinkType
from tests.snapshots import nib_history

I = LinkType.INTERNET
CODES = ["A", "B"]


def _report(lat, loss=0.0, t=0.0):
    return LinkReport("A", "B", I, lat, loss, t)


class TestWindow:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            NetworkInformationBase(CODES, window=0)

    def test_history_bounded_by_window(self):
        nib = NetworkInformationBase(CODES, window=3)
        nib.update_many([_report(100.0 + k, t=float(k)) for k in range(6)])
        history = nib_history(nib, "A", "B", I)
        assert len(history) == 3
        assert [r.latency_ms for r in history] == [103.0, 104.0, 105.0]

    def test_get_returns_latest(self):
        nib = NetworkInformationBase(CODES, window=3)
        nib.update_many([_report(100.0, t=0.0), _report(200.0, t=1.0)])
        assert nib.latest_snapshot(CODES).lookup("A", "B", I)[0] == 200.0

    def test_out_of_order_report_dropped(self):
        nib = NetworkInformationBase(CODES, window=3)
        nib.update_many([_report(100.0, t=10.0), _report(999.0, t=5.0)])
        assert len(nib_history(nib, "A", "B", I)) == 1
        assert nib.latest_snapshot(CODES).lookup("A", "B", I)[0] == 100.0

    def test_history_empty_for_unknown_link(self):
        nib = NetworkInformationBase(CODES, window=3)
        assert nib_history(nib, "A", "B", I) == []
        assert nib.export_reports() == []


class TestRobustState:
    def test_percentile_over_window(self):
        nib = NetworkInformationBase(CODES, window=5)
        nib.update_many([_report(100.0, loss, t=float(k)) for k, loss
                         in enumerate([0.0, 0.0, 0.0, 0.0, 0.2])])
        __, loss_p90 = nib.robust_snapshot(CODES).lookup("A", "B", I)
        # p90 of four zeros and 0.2 interpolates 60% of the way up.
        assert ROBUST_PERCENTILE == 90.0
        assert loss_p90 == pytest.approx(0.12)

    def test_window_one_equals_latest(self):
        nib = NetworkInformationBase(CODES, window=1)
        nib.update_many([_report(123.0, 0.01, t=0.0)])
        assert nib.robust_snapshot(CODES).lookup("A", "B", I) == \
            (123.0, 0.01)


class TestRobustController:
    def test_robust_state_used_for_planning(self):
        ctrl = Controller(CODES, nib_window=4)
        # Three clean reports, one terrible one: the pessimistic view
        # must remember the bad sample.
        ctrl.nib.update_many([_report(100.0, loss, t=float(k)) for k, loss
                              in enumerate([0.3, 0.0, 0.0, 0.0])])
        __, loss = ctrl.link_snapshot().lookup("A", "B", I)
        assert loss > 0.05

    def test_last_sample_mode_forgets(self):
        ctrl = Controller(CODES)  # window 1
        ctrl.nib.update_many([_report(100.0, 0.3, t=0.0),
                              _report(100.0, 0.0, t=1.0)])
        __, loss = ctrl.link_snapshot().lookup("A", "B", I)
        assert loss == pytest.approx(0.0)

    def test_symmetric_mode_composes_with_robust(self):
        ctrl = Controller(CODES, nib_window=3, symmetric_only=True)
        ctrl.nib.update_many([LinkReport("A", "B", I, 100.0, 0.2, 0.0),
                              LinkReport("B", "A", I, 300.0, 0.0, 0.0)])
        lat, loss = ctrl.link_snapshot().lookup("A", "B", I)
        assert lat == pytest.approx(200.0)
        assert loss == pytest.approx(0.1)
