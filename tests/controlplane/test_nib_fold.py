"""The NIB's queued batches and their fold against per-link report lists.

`update_many(ReportBatch)` queues a batch and the queue folds into the
rings on the next read or once it spans `FOLD_SLOTS`; the list path and
`import_reports` fold at once.  Whatever the interleaving of writes and
reads, every read must serve what storing the reports one at a time
would (`tests/controlplane/nib_oracle.py::ReportListNIB`): `len`,
`version`, both snapshots and the export.  The drawn histories hold
what the engine sends — probing rounds that share their link columns,
partial rounds (blackouts, severed regions, dropped reports), rows a
staleness fault moved back, whole rounds out of order, rounds over the
regions in another order — and lists with repeated links, imports, and
a fold bound as small as one batch.
"""

import json
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.controlplane import nib as nib_module
from repro.controlplane.nib import (LinkReport, NetworkInformationBase,
                                    ReportBatch)
from repro.underlay.snapshot import TYPE_ORDER
from tests.controlplane.nib_oracle import ReportListNIB

CODES = ("A", "B", "C", "D")
#: Every directed link of `CODES`, as (src, dst, tier) positions.
LINKS = [(i, j, tier) for i in range(len(CODES)) for j in range(len(CODES))
         if i != j for tier in range(2)]
LATENCIES = [5.0, 7.5, 120.0, 0.1]
LOSSES = [0.0, 0.001, 0.5, 1.0]
#: Few instants: ties, repeats and out-of-order rounds are common.
TIMES = [10.0, 10.4, 10.8, 11.2, 9.6]

values = st.tuples(st.sampled_from(LATENCIES), st.sampled_from(LOSSES))
rows = st.lists(st.tuples(st.integers(0, len(LINKS) - 1), values),
                unique_by=lambda row: row[0], max_size=len(LINKS))
rounds = st.tuples(
    st.just("round"),
    # None: the previous round's links, as one probing round follows
    # another (the same column arrays); else a partial round.
    st.none() | rows,
    st.sampled_from(TIMES),
    # Rows a staleness fault moved back, and by how much.
    st.sets(st.integers(0, len(LINKS) - 1), max_size=4),
    st.sampled_from([0.4, 30.0]),
    # The round's own region order (the NIB maps it onto its own).
    st.booleans(),
    # What this round measures, against the links' last drawn values.
    st.sampled_from([1.0, 2.0, 3.0]))
reports = st.lists(st.tuples(st.integers(0, len(LINKS) - 1),
                             st.sampled_from(TIMES), values), max_size=12)
steps = st.lists(st.one_of(
    rounds, rounds, rounds,
    st.tuples(st.just("list"), reports),
    st.tuples(st.just("import"), reports),
    st.tuples(st.just("read"), st.sampled_from(
        ["len", "version", "latest", "robust", "export"]))),
    max_size=30)


def _report(link, t, lat, loss):
    i, j, tier = LINKS[link]
    return LinkReport(CODES[i], CODES[j], TYPE_ORDER[tier], lat, loss, t)


class Twins:
    """One NIB and its oracle, fed the same history."""

    def __init__(self, window):
        self.nib = NetworkInformationBase(CODES, window=window)
        self.oracle = ReportListNIB(CODES, window)
        self.columns = None
        self.values = [(5.0, 0.0)] * len(LINKS)

    def round(self, drawn, t, staled, shift, reordered, scale):
        if drawn is not None or self.columns is None:
            picked = [link for link, __ in drawn or []]
            for link, pair in drawn or []:
                self.values[link] = pair
            self.picked = picked
            codes = CODES[::-1] if reordered else CODES
            column = {code: k for k, code in enumerate(codes)}
            self.columns = (codes, *(
                np.array([column[CODES[LINKS[link][axis]]] if axis < 2
                          else LINKS[link][2] for link in picked],
                         dtype=np.intp) for axis in range(3)))
        codes, src, dst, tier = self.columns
        at = np.array([t - shift if link in staled else t
                       for link in self.picked])
        at = np.maximum(at, 0.0)
        lat = np.array([self.values[link][0] * scale
                        for link in self.picked])
        loss = np.array([self.values[link][1] for link in self.picked])
        self.nib.update_many(ReportBatch(codes, src, dst, tier, lat, loss,
                                         at))
        for link, when, a, b in zip(self.picked, at.tolist(), lat.tolist(),
                                    loss.tolist()):
            self.oracle.store(_report(link, when, a, b))

    def read(self, kind):
        nib, oracle = self.nib, self.oracle
        if kind == "len":
            assert len(nib) == len(oracle)
        elif kind == "version":
            assert nib.version == oracle.version
        elif kind == "export":
            assert nib.export_reports() == oracle.export_reports()
        else:
            robust = kind == "robust"
            snap = (nib.robust_snapshot(CODES) if robust
                    else nib.latest_snapshot(CODES))
            lat, loss = oracle.snapshot(CODES, robust)
            assert snap.lat.tobytes() == lat.tobytes()
            assert snap.loss.tobytes() == loss.tobytes()


@settings(max_examples=150, deadline=None)
@given(window=st.integers(1, 4), bound=st.sampled_from([1, 40, None]),
       history=steps)
@example(window=1, bound=None, history=[
    ("round", [(0, (5.0, 0.0)), (1, (7.5, 0.5))], 10.4, set(), 0.4, False,
     1.0),
    ("round", None, 10.0, set(), 0.4, False, 2.0),
    ("read", "latest")])
@example(window=2, bound=None, history=[
    ("round", [(3, (5.0, 0.0))], 10.4, set(), 0.4, False, 1.0),
    ("read", "version"),
    ("round", None, 10.8, set(), 0.4, False, 2.0),
    ("read", "export")])
def test_every_read_serves_the_reports_one_at_a_time(window, bound,
                                                     history):
    """`bound` is `FOLD_SLOTS` in links (None: the default), so some
    histories fold on the bound between reads.  The two `@example`s
    are the mutants' counterexamples: an out-of-order round the fold
    must drop, and an export right after a queued round."""
    twins = Twins(window)
    slots = (nib_module.FOLD_SLOTS if bound is None
             else bound * len(LINKS))
    with mock.patch.object(nib_module, "FOLD_SLOTS", slots):
        for step in history:
            kind = step[0]
            if kind == "round":
                twins.round(*step[1:])
            elif kind == "read":
                twins.read(step[1])
            else:
                drawn = [_report(link, t, *pair) for link, t, pair in step[1]]
                if kind == "list":
                    twins.nib.update_many(drawn)
                else:
                    twins.nib.import_reports(json.loads(json.dumps(
                        [{"src": r.src, "dst": r.dst,
                          "link_type": r.link_type.value,
                          "latency_ms": r.latency_ms,
                          "loss_rate": r.loss_rate,
                          "reported_at": r.reported_at} for r in drawn])))
                for report in drawn:
                    twins.oracle.store(report)
        for kind in ("export", "len", "version", "latest", "robust"):
            twins.read(kind)


def test_reads_fold_and_writes_queue():
    """A round waits in the queue until a read; the bound folds it
    early; a list folds at once."""
    nib = NetworkInformationBase(CODES)
    link = np.array([0])
    batch = ReportBatch(CODES, link, link + 1, link, np.array([5.0]),
                        np.array([0.0]), np.array([1.0]))
    nib.update_many(batch)
    assert len(nib._pending) == 1 and not nib._ring_total.any()
    assert nib.version == 1 and not nib._pending
    with mock.patch.object(nib_module, "FOLD_SLOTS", 2 * nib._ring_total.size):
        nib.update_many(batch)
        assert len(nib._pending) == 1
        nib.update_many(batch)
        assert not nib._pending and nib._version == 3
    nib.update_many([LinkReport("A", "C", TYPE_ORDER[0], 5.0, 0.0, 2.0)])
    assert not nib._pending and nib._version == 4
