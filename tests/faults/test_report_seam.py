"""The report-fault seam as one array pass equals the report-by-report
loop it replaced (`report_seam_oracle.py`): over drawn link- and
region-scoped drop and staleness windows, overlapping, with drop
probabilities below 1 and staleness clamped at 0, the NIB lets the same
reports through with the same times, counts the same and traces the
same events in the same order.

Mutation check: a seam where the last matching window wins (a later
staleness window ages rows an earlier one already aged, by its own
staleness) moves report times when two such windows overlap, and fails
this test within its first examples.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.controlplane.nib import NetworkInformationBase, ReportBatch
from repro.faults import (FaultInjector, FaultSchedule, report_drop,
                          report_staleness)
from repro.underlay.snapshot import TYPE_ORDER
from tests.faults.report_seam_oracle import filtered_batch

CODES = ("A", "B", "C", "D")
#: Scopes a window may name: a batch region, or one outside the batch.
SCOPES = st.one_of(st.none(), st.sampled_from(CODES + ("Z",)))

windows = st.builds(
    lambda kind, start, length, region, dst, tier, p, stale: (
        replace(report_drop(start, length, region=region), dst=dst,
                link_type=tier, probability=p)
        if kind == "drop" else
        replace(report_staleness(start, length, stale, region=region),
                dst=dst, link_type=tier)),
    st.sampled_from(["drop", "stale"]), st.sampled_from([0.0, 1.0, 2.0]),
    st.sampled_from([1.0, 2.0, 5.0]), SCOPES, SCOPES,
    st.one_of(st.none(), st.sampled_from(TYPE_ORDER)),
    st.sampled_from([1.0, 0.5, 0.25]), st.sampled_from([0.5, 1.5, 30.0]))


@st.composite
def batches(draw):
    """Rows over `CODES` (a link may repeat), at one instant or several."""
    rows = draw(st.lists(st.tuples(
        st.integers(0, len(CODES) - 1), st.integers(0, len(CODES) - 1),
        st.integers(0, 1), st.floats(0.0, 500.0), st.floats(0.0, 1.0)),
        max_size=12))
    instants = draw(st.lists(st.sampled_from([0.4, 1.2, 2.0, 3.6, 6.0]),
                             min_size=1, max_size=3))
    at = [instants[k % len(instants)] for k in range(len(rows))]
    columns = list(zip(*rows)) or [()] * 5
    return ReportBatch(CODES, np.array(columns[0], dtype=np.intp),
                       np.array(columns[1], dtype=np.intp),
                       np.array(columns[2], dtype=np.intp),
                       np.array(columns[3], dtype=float),
                       np.array(columns[4], dtype=float),
                       np.array(at, dtype=float))


def seam(filter_of, schedule, stream):
    """Every batch of `stream` through a filter built on a fresh
    injector: the columns let through, the counters and the telemetry."""
    injector = FaultInjector(schedule, seed=5)
    columns = []
    with obs.capture() as hub:
        for batch in stream:
            out = filter_of(injector)(batch)
            columns.append([column.tobytes() for column in (
                out.src, out.dst, out.tier, out.latency_ms, out.loss_rate,
                out.reported_at)])
        events = hub.events_json()
        metrics = hub.metrics.snapshot()
    return columns, injector.counters.as_dict(), events, metrics


def nib_filter(injector):
    nib = NetworkInformationBase(CODES)
    nib.fault_filter = injector
    return nib._filtered_batch


@given(st.lists(windows, min_size=1, max_size=4),
       st.lists(batches(), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_the_array_seam_equals_the_report_loop(specs, stream):
    schedule = FaultSchedule.of(*specs)
    array = seam(nib_filter, schedule, stream)
    loop = seam(lambda injector: lambda batch: filtered_batch(injector,
                                                              batch),
                schedule, stream)
    assert array == loop


def test_overlapping_probabilistic_drops_draw_per_window():
    """Two overlapping drops with p < 1 and a staleness window behind
    them: every row of a busy batch is decided, some by each drop, and
    the rows no drop fires on age."""
    schedule = FaultSchedule.of(
        replace(report_drop(0.0, 10.0, region="A"), probability=0.5),
        replace(report_drop(0.0, 10.0), probability=0.5),
        report_staleness(0.0, 10.0, 30.0))
    rows = [(i, j, tier) for i in range(4) for j in range(4) if i != j
            for tier in (0, 1)] * 4
    stream = [ReportBatch(
        CODES, np.array([r[0] for r in rows]), np.array([r[1] for r in rows]),
        np.array([r[2] for r in rows]), np.full(len(rows), 50.0),
        np.full(len(rows), 0.01), np.arange(len(rows)) * 0.05)]
    array = seam(nib_filter, schedule, stream)
    loop = seam(lambda injector: lambda batch: filtered_batch(injector,
                                                              batch),
                schedule, stream)
    assert array == loop
    counters = array[1]
    assert 0 < counters["reports_dropped"] < len(rows)
    assert counters["reports_staled"] == len(rows) - counters[
        "reports_dropped"]
    kinds = {event["kind"] for event in array[2]}
    assert kinds == {"fault_report_drop", "fault_report_stale"}
