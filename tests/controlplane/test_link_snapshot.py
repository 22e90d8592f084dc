"""NIB matrix snapshots and the controller's `link_snapshot`.

These pin the whole-matrix paths (`latest_snapshot`, `robust_snapshot`,
`Controller.link_snapshot`) to a per-link expectation computed here from
each link's exported report history — the last report, the window percentile, every
topology-variant mask — with exact equality per link, plus the
telemetry of the solver's snapshot reuse.
"""

import numpy as np
import pytest

from repro import obs
from repro.controlplane import model
from repro.controlplane.controller import Controller
from repro.controlplane.model import ControlConfig
from repro.controlplane.nib import (ROBUST_PERCENTILE, LinkReport,
                                    NetworkInformationBase)
from repro.controlplane.pathcontrol import path_control
from repro.traffic.streams import VIDEO_PROFILES, Stream
from repro.underlay.linkstate import LinkType
from tests.snapshots import nib_history, snapshot_of
from tests.tables import table_of

I, P = LinkType.INTERNET, LinkType.PREMIUM

CODES = ["A", "B", "C"]


def fill_nib(nib, t0=0.0, rounds=1, skip=()):
    """Deterministic reports for every directed link and tier."""
    reports = []
    for r in range(rounds):
        k = 0
        for lt in (I, P):
            for a in CODES:
                for b in CODES:
                    if a == b or (a, b, lt) in skip:
                        continue
                    k += 1
                    reports.append(LinkReport(
                        a, b, lt,
                        latency_ms=10.0 * k + 3.0 * r,
                        loss_rate=min(0.001 * k + 0.002 * r, 1.0),
                        reported_at=t0 + 10.0 * r))
    nib.update_many(reports)


def links():
    for lt in (I, P):
        for a in CODES:
            for b in CODES:
                if a != b:
                    yield a, b, lt


def reported_state(nib, a, b, lt, robust=False):
    """One link's (latency, loss) from its report history: the last
    report, or the window's `ROBUST_PERCENTILE`; None if never
    reported."""
    history = nib_history(nib, a, b, lt)
    if not history:
        return None
    if not robust:
        return (history[-1].latency_ms, history[-1].loss_rate)
    return (float(np.percentile([r.latency_ms for r in history],
                                ROBUST_PERCENTILE)),
            float(np.percentile([r.loss_rate for r in history],
                                ROBUST_PERCENTILE)))


def planned_state(ctrl, a, b, lt):
    """What the solver must see for one link under `ctrl`'s variant."""
    missing = (np.inf, 1.0)
    if ctrl.premium_only and lt is I:
        return missing
    robust = ctrl.nib.window > 1
    fwd = reported_state(ctrl.nib, a, b, lt, robust)
    if not ctrl.symmetric_only:
        return fwd or missing
    rev = reported_state(ctrl.nib, b, a, lt, robust)
    if fwd is None or rev is None:
        return missing
    return ((fwd[0] + rev[0]) / 2.0, (fwd[1] + rev[1]) / 2.0)


class TestNibSnapshots:
    def test_latest_snapshot_matches_get(self):
        nib = NetworkInformationBase(window=3, codes=CODES)
        fill_nib(nib, rounds=3)
        snap = nib.latest_snapshot(CODES)
        for a, b, lt in links():
            assert snap.lookup(a, b, lt) == reported_state(nib, a, b, lt)

    def test_robust_snapshot_matches_robust_state(self):
        nib = NetworkInformationBase(window=4, codes=CODES)
        fill_nib(nib, rounds=6)  # ring wraps: 6 reports into 4 slots
        snap = nib.robust_snapshot(CODES)
        for a, b, lt in links():
            assert snap.lookup(a, b, lt) == reported_state(nib, a, b, lt,
                                                           robust=True)

    def test_partial_window_matches(self):
        nib = NetworkInformationBase(window=8, codes=CODES)
        fill_nib(nib, rounds=2)  # only 2 of 8 slots filled
        snap = nib.robust_snapshot(CODES)
        for a, b, lt in links():
            assert snap.lookup(a, b, lt) == reported_state(nib, a, b, lt,
                                                           robust=True)

    def test_never_reported_links_are_missing(self):
        nib = NetworkInformationBase(window=2, codes=CODES)
        fill_nib(nib, skip={("A", "B", I)})
        snap = nib.latest_snapshot(CODES)
        assert snap.lookup("A", "B", I) == (np.inf, 1.0)
        robust = nib.robust_snapshot(CODES)
        assert robust.lookup("A", "B", I) == (np.inf, 1.0)

    def test_unknown_region_in_codes(self):
        nib = NetworkInformationBase(window=1, codes=CODES)
        fill_nib(nib)
        for snapshot in (nib.latest_snapshot, nib.robust_snapshot):
            with pytest.raises(ValueError, match="'Z'"):
                snapshot(CODES + ["Z"])

    def test_empty_nib_snapshot(self):
        nib = NetworkInformationBase(codes=CODES)
        snap = nib.robust_snapshot(CODES)
        assert snap.lookup("A", "B", I) == (np.inf, 1.0)

    def test_stale_out_of_order_report_ignored_everywhere(self):
        nib = NetworkInformationBase(window=2, codes=CODES)
        nib.update_many([LinkReport("A", "B", I, 50.0, 0.01, reported_at=100.0)])
        nib.update_many([LinkReport("A", "B", I, 99.0, 0.5, reported_at=90.0)])
        assert [r.latency_ms for r in nib_history(nib, "A", "B", I)] == [50.0]
        assert nib.latest_snapshot(CODES).lookup("A", "B", I) == (50.0, 0.01)


class TestControllerLinkSnapshot:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"premium_only": True},
        {"symmetric_only": True},
        {"nib_window": 4},
        {"symmetric_only": True, "nib_window": 4},
    ])
    def test_matches_scalar_link_state(self, kwargs):
        ctrl = Controller(CODES, ControlConfig(), **kwargs)
        # Leave one direction unreported so the symmetric variant hits
        # its "one side missing" branch.
        fill_nib(ctrl.nib, rounds=4, skip={("C", "A", P)})
        snap = ctrl.link_snapshot()
        for a, b, lt in links():
            assert snap.lookup(a, b, lt) == planned_state(ctrl, a, b, lt)


class TestSnapshotTelemetry:
    def test_snapshot_reuses_counter_tracks_rebuilds(self, monkeypatch):
        """Rebuild passes reuse the epoch snapshot instead of
        re-evaluating link state; the counter proves it."""
        monkeypatch.setattr(model, "CONTAINER_CAPACITY_MBPS", 10.0)
        config = ControlConfig(internet_bandwidth_mbps=10.0,
                               premium_bandwidth_mbps=10.0)
        streams = table_of([Stream(i, "A", "B", 8.0, VIDEO_PROFILES[2])
                            for i in range(4)], ["A", "B"])
        snap = snapshot_of(["A", "B"], lambda a, b, t: (40.0, 0.0))
        with obs.capture() as tel:
            result = path_control(streams, ["A", "B"], snap, config,
                                  gateways={"A": 2, "B": 2})
            reuses = tel.metrics.counter(
                "pathcontrol.snapshot_reuses").value
        # Every graph build after the first reuses the snapshot.
        assert result.graph_rebuilds >= 1
        assert reuses >= result.graph_rebuilds

    def test_prebuilt_snapshot_means_no_build_span(self, small_underlay):
        config = ControlConfig()
        codes = small_underlay.codes
        streams = table_of(
            [Stream(0, codes[0], codes[1], 5.0, VIDEO_PROFILES[2])], codes)
        snap = small_underlay.snapshot(600.0)
        with obs.capture() as tel:
            path_control(streams, codes, snap, config,
                         gateways={c: 2 for c in codes})
            builds = [e for e in tel.events_json()
                      if e.get("step") == "snapshot_build"]
        assert builds == []
