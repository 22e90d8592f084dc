"""Tests for the network and stream information bases."""

import pytest

from repro.controlplane.nib import LinkReport, NetworkInformationBase
from repro.controlplane.sib import StreamInformationBase
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.linkstate import LinkType
from tests.snapshots import nib_history


def _report(src="A", dst="B", lt=LinkType.INTERNET, lat=100.0, loss=0.01,
            t=0.0):
    return LinkReport(src, dst, lt, lat, loss, t)


class TestLinkReport:
    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            _report(lat=-1.0)

    def test_rejects_nan_latency(self):
        with pytest.raises(ValueError, match="NaN"):
            _report(lat=float("nan"))

    def test_rejects_loss_out_of_range(self):
        with pytest.raises(ValueError):
            _report(loss=1.5)


def _latest(nib, src="A", dst="B", lt=LinkType.INTERNET):
    return nib.latest_snapshot(["A", "B"]).lookup(src, dst, lt)


class TestNIB:
    def test_update_and_get(self):
        nib = NetworkInformationBase()
        assert _latest(nib) == (float("inf"), 1.0)
        nib.update_many([_report()])
        assert _latest(nib) == (100.0, 0.01)
        assert nib_history(nib, "A", "B", LinkType.INTERNET) == [_report()]

    def test_directions_are_distinct(self):
        nib = NetworkInformationBase()
        nib.update_many([_report("A", "B", lat=100.0)])
        nib.update_many([_report("B", "A", lat=250.0)])
        assert _latest(nib, "A", "B")[0] == 100.0
        assert _latest(nib, "B", "A")[0] == 250.0

    def test_types_are_distinct(self):
        nib = NetworkInformationBase()
        nib.update_many([_report(lt=LinkType.INTERNET, lat=100.0)])
        nib.update_many([_report(lt=LinkType.PREMIUM, lat=80.0)])
        assert _latest(nib, lt=LinkType.PREMIUM)[0] == 80.0
        assert _latest(nib, lt=LinkType.INTERNET)[0] == 100.0

    def test_newest_report_wins(self):
        nib = NetworkInformationBase()
        nib.update_many([_report(lat=100.0, t=10.0)])
        nib.update_many([_report(lat=200.0, t=5.0)])  # older: ignored
        assert _latest(nib)[0] == 100.0
        nib.update_many([_report(lat=300.0, t=20.0)])
        assert _latest(nib)[0] == 300.0

    def test_snapshot_is_a_copy(self):
        nib = NetworkInformationBase()
        nib.update_many([_report()])
        snap = nib.latest_snapshot(["A", "B"])
        nib.update_many([_report(lat=999.0, t=99.0)])
        assert snap.lookup("A", "B", LinkType.INTERNET)[0] == 100.0

    def test_update_many_and_len(self):
        nib = NetworkInformationBase()
        nib.update_many([_report(), _report("B", "A")])
        assert len(nib) == 2


class TestSIB:
    def _matrix(self, demand=10.0):
        return TrafficMatrix(["A", "B"], {("A", "B"): demand,
                                          ("B", "A"): demand / 2})

    def test_record_and_predict(self):
        sib = StreamInformationBase(["A", "B"], min_history=1)
        sib.record_epoch(self._matrix(10.0))
        predicted = sib.predicted_matrix()
        # Persistence-with-safety until the DTFT has enough history.
        assert predicted.get("A", "B") >= 10.0

    def test_predict_before_any_record_raises(self):
        sib = StreamInformationBase(["A", "B"])
        with pytest.raises(RuntimeError):
            sib.predicted_matrix()

    def test_unknown_pair_rejected(self):
        sib = StreamInformationBase(["A", "B"])
        bad = TrafficMatrix(["A", "B", "C"], {("A", "C"): 1.0})
        with pytest.raises(KeyError):
            sib.record_epoch(bad)

    def test_pairs_predict_independently(self):
        """Each ordered pair has its own predictor: a direction's
        history never leaks into the reverse direction's forecast."""
        sib = StreamInformationBase(["A", "B"], min_history=1)
        sib.record_epoch(self._matrix(10.0))
        sib.record_epoch(self._matrix(40.0))
        predicted = sib.predicted_matrix()
        assert predicted.get("A", "B") >= 40.0
        assert 20.0 <= predicted.get("B", "A") < 40.0
