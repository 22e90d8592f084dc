"""Checkpoint serialization: every hop of the warm-restart round trip."""

import numpy as np

from repro.controlplane.controller import Controller
from repro.controlplane.nib import LinkReport, NetworkInformationBase
from repro.controlplane.sib import StreamInformationBase
from repro.resilience import Checkpoint
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import StreamWorkload
from repro.underlay.linkstate import LinkType

I = LinkType.INTERNET
P = LinkType.PREMIUM

CODES = ["HGH", "SIN", "FRA"]
SIB_PARAMS = {"min_history": 4, "refit_every": 2}


def _matrix(k: float) -> TrafficMatrix:
    demand = {(a, b): 100.0 + 10.0 * k + 7.0 * (hash((a, b)) % 5)
              for a in CODES for b in CODES if a != b}
    return TrafficMatrix(CODES, demand)


def _fed_sib() -> StreamInformationBase:
    sib = StreamInformationBase(CODES, **SIB_PARAMS)
    for k in range(6):
        sib.record_epoch(_matrix(float(k)))
    return sib


class TestComponentRoundTrips:
    def test_sib_state_restores_fitted_predictions(self):
        sib = _fed_sib()
        fresh = StreamInformationBase(CODES, **SIB_PARAMS)
        fresh.import_state(sib.export_state())
        want = dict(sib.predicted_matrix().items())
        got = dict(fresh.predicted_matrix().items())
        assert want == got
        # The restored predictors are genuinely fitted, not falling back.
        models = fresh.export_state()["predictors"]
        assert models["HGH->SIN"]["model"] is not None

    def test_cold_sib_predicts_persistence_fallback(self):
        cold = StreamInformationBase(CODES, **SIB_PARAMS)
        cold.record_epoch(_matrix(0.0))
        observed = dict(_matrix(0.0).items())
        for pair, pred in cold.predicted_matrix().items():
            assert pred == observed[pair] * 1.1

    def test_nib_reports_round_trip(self):
        nib = NetworkInformationBase(window=3, codes=CODES)
        nib.update_many(
            [LinkReport("HGH", "SIN", I, 100.0 + k, 0.01, 10.0 + k)
             for k in range(5)]
            + [LinkReport("SIN", "FRA", P, 80.0, 0.0, 12.0)])
        fresh = NetworkInformationBase(window=3, codes=CODES)
        fresh.import_reports(nib.export_reports())
        assert fresh.export_reports() == nib.export_reports()
        assert fresh.latest_snapshot(CODES).lookup("HGH", "SIN", I) == \
            (104.0, 0.01)

    def test_workload_rng_and_counter_round_trip(self):
        workload = StreamWorkload(np.random.default_rng(9))
        workload.decompose(_matrix(0.0))
        doc = workload.export_state()
        fresh = StreamWorkload(np.random.default_rng(0))
        fresh.import_state(doc)
        a = workload.decompose(_matrix(1.0))
        b = fresh.decompose(_matrix(1.0))
        assert [(s.stream_id, s.src, s.dst, s.demand_mbps)
                for s in a.streams()] \
            == [(s.stream_id, s.src, s.dst, s.demand_mbps)
                for s in b.streams()]


class TestCheckpoint:
    def _controller(self) -> Controller:
        ctrl = Controller(CODES, sib_params=SIB_PARAMS, seed=11)
        for k in range(6):
            ctrl.sib.record_epoch(_matrix(float(k)))
            ctrl.epochs_run += 1
        ctrl.nib.update_many([LinkReport("HGH", "SIN", I, 100.0, 0.01, 10.0)])
        ctrl._workload.decompose(_matrix(0.0))
        return ctrl

    def test_json_round_trip_is_lossless(self):
        ctrl = self._controller()
        tables = {"HGH": {1: ("SIN", I), 2: ("FRA", P)}, "SIN": {}}
        plans = {"HGH": {1: ("SIN",)}}
        cp = Checkpoint.take(ctrl, tables, plans, t=123.0, epoch_seq=6,
                             version=4)
        restored = Checkpoint.loads(cp.dumps())
        assert restored.t == 123.0
        assert restored.epoch_seq == 6
        assert restored.version == 4
        assert restored.tables == tables
        assert restored.plans == plans
        # Serializing again produces the identical artifact.
        assert restored.dumps() == cp.dumps()

    def test_restore_reproduces_the_live_controller(self):
        ctrl = self._controller()
        cp = Checkpoint.loads(
            Checkpoint.take(ctrl, {}, {}, t=0.0, epoch_seq=6,
                            version=1).dumps())
        fresh = Controller(CODES, sib_params=SIB_PARAMS, seed=11)
        cp.restore(fresh)
        assert fresh.epochs_run == ctrl.epochs_run
        assert dict(fresh.sib.predicted_matrix().items()) \
            == dict(ctrl.sib.predicted_matrix().items())
        assert fresh.nib.export_reports() == ctrl.nib.export_reports()
        a = ctrl._workload.decompose(_matrix(9.0))
        b = fresh._workload.decompose(_matrix(9.0))
        assert a.stream_id.tolist() == b.stream_id.tolist()
