"""The NIB's array ingest against its report-by-report one.

`update_many(ReportBatch)` writes a probing round into the rings by
fancy index; the same reports through `update_many([report])` one at a
time must leave an identical NIB — rings, version, both snapshots, the
checkpoint bytes — and, under report faults, an identical fault RNG,
identical counters and identical telemetry.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.controlplane.nib import (LinkReport, NetworkInformationBase,
                                    ReportBatch)
from repro.faults import (FaultInjector, FaultSchedule, report_drop,
                          report_staleness)
from repro.underlay.snapshot import TYPE_ORDER
from tests.controlplane.nib_oracle import store_reports
from tests.snapshots import nib_history

CODES = ("A", "B", "C", "D")
I, P = TYPE_ORDER


def round_of(src, t, rng, codes=CODES):
    """One cluster round: a batch from region `src` over all its links."""
    column = {code: i for i, code in enumerate(codes)}
    links = [(column[dst], tier) for dst in codes if dst != src
             for tier in range(2)]
    n = len(links)
    return ReportBatch(
        codes, np.full(n, column[src]), np.array([j for j, __ in links]),
        np.array([tier for __, tier in links]), rng.uniform(5.0, 300.0, n),
        rng.uniform(0.0, 1.0, n) ** 3, np.full(n, t))


def rounds(seed, count=9):
    rng = np.random.default_rng(seed)
    return [round_of(CODES[k % len(CODES)], 10.0 + 0.4 * (k // len(CODES)),
                     rng) for k in range(count * len(CODES))]


def everything(nib):
    """Every observable of a NIB, rings included."""
    return {
        "rings": [ring.tobytes() for ring in (
            nib._ring_lat, nib._ring_loss, nib._ring_at, nib._ring_total)],
        "version": nib.version, "len": len(nib),
        "export": json.dumps(nib.export_reports(), sort_keys=True),
        "latest": nib.latest_snapshot(CODES).lat.tobytes(),
        "robust": nib.robust_snapshot(CODES).loss.tobytes(),
    }


@pytest.mark.parametrize("window", [1, 3])
class TestBatchEqualsOneByOne:
    def test_rounds_of_batches(self, window):
        batched = NetworkInformationBase(window=window, codes=CODES)
        single = NetworkInformationBase(window=window, codes=CODES)
        for batch in rounds(seed=window):
            batched.update_many(batch)
            for report in batch:
                single.update_many([report])
            assert everything(batched) == everything(single)
        assert batched.version == 9 * len(CODES) * 6
        history = nib_history(batched, "A", "B", I)
        assert len(history) == window
        assert [r.reported_at for r in history] == sorted(
            r.reported_at for r in history)

    def test_out_of_order_batch_is_dropped_link_by_link(self, window):
        rng = np.random.default_rng(3)
        batched = NetworkInformationBase(window=window, codes=CODES)
        single = NetworkInformationBase(window=window, codes=CODES)
        fresh, late = round_of("A", 20.0, rng), round_of("A", 15.0, rng)
        # Two of the late round's reports are in fact the newest.
        late.reported_at[[1, 4]] = 25.0
        for nib, ingest in ((batched, batched.update_many),
                            (single, lambda b: [single.update_many([r])
                                                for r in b])):
            ingest(fresh)
            ingest(late)
            assert nib.version == len(fresh) + 2
        assert everything(batched) == everything(single)
        assert nib_history(batched, "A", "B", P)[-1].reported_at == 25.0
        assert nib_history(batched, "A", "B", I)[-1].reported_at == 20.0

    def test_a_list_of_reports_with_repeated_links(self, window):
        """`update_many(list)` applies a link's reports in list order."""
        reports = [r for batch in rounds(seed=5, count=3) for r in batch]
        listed = NetworkInformationBase(window=window)
        single = NetworkInformationBase(window=window)
        listed.update_many(reports)
        for report in reports:
            single.update_many([report])
        assert everything(listed) == everything(single)
        restored = NetworkInformationBase(window=window)
        restored.import_reports(listed.export_reports())
        assert restored.export_reports() == listed.export_reports()

    def test_regions_in_another_order_and_unknown_ones(self, window):
        """A batch indexes its own `codes`; the NIB maps and grows."""
        nib = NetworkInformationBase(window=window, codes=("B", "A"))
        batch = round_of("D", 1.0, np.random.default_rng(0))
        nib.update_many(batch)
        assert len(nib) == 6
        for report in batch:
            assert nib_history(nib, report.src, report.dst,
                               report.link_type) == [report]


#: Regions a drawn report list names: two the NIB may know in advance,
#: three it may meet first in the list.
POOL = ("B", "A", "E", "C", "D")
drawn_reports = st.lists(st.one_of(
    st.none(),
    st.tuples(st.sampled_from(POOL), st.sampled_from(POOL)).filter(
        lambda pair: pair[0] != pair[1]).flatmap(
        lambda pair: st.builds(
            LinkReport, st.just(pair[0]), st.just(pair[1]),
            st.sampled_from(TYPE_ORDER),
            st.sampled_from([5.0, 7.5, 120.0, 0.1]),
            st.sampled_from([0.0, 0.001, 0.5, 1.0]),
            # Few instants: repeats, ties, stale and out-of-order ones.
            st.sampled_from([1.0, 2.0, 3.0, 2.5])))), max_size=40)


def state(nib):
    """The NIB's whole store, bit for bit."""
    return ([ring.tobytes() for ring in (
        nib._ring_lat, nib._ring_loss, nib._ring_at, nib._ring_total)],
        [ring.shape for ring in (nib._ring_lat, nib._ring_total)],
        nib.version, list(nib._codes), dict(nib._index))


@given(st.integers(1, 3), st.sampled_from([(), ("B", "A")]),
       st.lists(drawn_reports, min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_report_lists_equal_the_layer_by_layer_oracle(window, known,
                                                      calls):
    """`_store_reports` equals the per-report dict of tuple keys it
    replaced — duplicates, dropped (None) reports, unknown regions,
    stale and out-of-order reports, over several calls."""
    arrays = NetworkInformationBase(window=window, codes=known)
    oracle = NetworkInformationBase(window=window, codes=known)
    for reports in calls:
        arrays._store_reports(iter(reports))
        store_reports(oracle, reports)
        assert state(arrays) == state(oracle)
    assert arrays.export_reports() == oracle.export_reports()


def faulted(ingest_of):
    """A NIB behind drop (p = 0.5, one region's reports) and staleness
    (one link) faults, fed ten rounds: everything observable after."""
    schedule = FaultSchedule.of(
        report_drop(10.0, 2.0, region="A", probability=0.5),
        report_staleness(10.4, 2.0, 30.0, region="B", dst="C",
                         link_type=I))
    injector = FaultInjector(schedule, seed=8)
    nib = NetworkInformationBase(window=3, codes=CODES)
    nib.fault_filter = injector
    calls = []
    filter_report = injector.filter_report
    injector.filter_report = lambda report: (
        calls.append(report) or filter_report(report))
    with obs.capture() as hub:
        for batch in rounds(seed=2, count=10):
            ingest_of(nib)(batch)
        events = hub.events_json()
        counters = {name: hub.metrics.snapshot()[name]["value"]
                    for name in ("fault.reports_dropped",
                                 "fault.reports_staled")}
    return (everything(nib), injector.counters.as_dict(), events, counters,
            calls)


def test_faulted_batches_equal_faulted_reports():
    batched = faulted(lambda nib: nib.update_many)
    single = faulted(lambda nib: lambda batch: [nib.update_many([r])
                                                for r in batch])
    assert batched[:4] == single[:4]
    __, counters, events, telemetry, calls = batched
    assert counters["reports_dropped"] > 0 and counters["reports_staled"] > 0
    assert telemetry == {"fault.reports_dropped": counters["reports_dropped"],
                         "fault.reports_staled": counters["reports_staled"]}
    assert len(events) == sum(telemetry.values())
    # The batch path asked the filter about the matched reports only —
    # region A's while the drop window is open, the one staled link —
    # in report order; one by one, every report is asked about.
    assert all((r.src == "A" and 10.0 <= r.reported_at < 12.0)
               or (r.src, r.dst, r.link_type) == ("B", "C", I)
               for r in calls)
    assert len(calls) < len(single[4]) == 10 * len(CODES) * 6
    assert [r for r in single[4] if r in calls] == calls


def test_an_uncovered_instant_never_builds_a_report(monkeypatch):
    injector = FaultInjector(FaultSchedule.of(report_drop(500.0, 5.0)))
    nib = NetworkInformationBase(codes=CODES)
    nib.fault_filter = injector
    built = []
    init = LinkReport.__init__
    monkeypatch.setattr(
        LinkReport, "__init__",
        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    for batch in rounds(seed=1, count=2):
        nib.update_many(batch)
    assert nib.version == 2 * len(CODES) * 6 and not built


class TestReportBatch:
    def test_sized_falsy_when_empty_and_materialises(self):
        batch = round_of("A", 3.0, np.random.default_rng(1))
        assert len(batch) == 6 and batch
        reports = list(batch)
        assert reports[2] == batch[2]
        assert all(isinstance(r, LinkReport) and r.src == "A"
                   and type(r.latency_ms) is float for r in reports)
        assert {(r.dst, r.link_type) for r in reports} == {
            (dst, lt) for dst in "BCD" for lt in TYPE_ORDER}
        empty = ReportBatch(CODES, *(np.zeros(0, dtype=np.intp),) * 3,
                            *(np.zeros(0),) * 3)
        assert len(empty) == 0 and not empty and list(empty) == []

    @pytest.mark.parametrize("field, value", [
        ("latency_ms", -1.0), ("latency_ms", float("nan")),
        ("loss_rate", 1.5), ("loss_rate", -0.1),
        ("loss_rate", float("nan"))])
    def test_range_checks_cover_the_arrays(self, field, value):
        batch = round_of("A", 3.0, np.random.default_rng(1))
        columns = dict(vars(batch))
        columns[field] = columns[field].copy()
        columns[field][3] = value
        with pytest.raises(ValueError):
            ReportBatch(**columns)
