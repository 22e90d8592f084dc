"""Tests for the fault injector's point queries."""

from dataclasses import replace

import numpy as np
import pytest

from repro.controlplane.nib import (LinkReport, NetworkInformationBase,
                                    ReportBatch)
from repro.faults import (FaultInjector, FaultSchedule, controller_outage,
                          gateway_crash, install_delay, install_partial,
                          platform_load, probe_blackout, report_drop,
                          report_staleness, truncate_install)
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_INDEX

I = LinkType.INTERNET
P = LinkType.PREMIUM


def _report(t, src="HGH", dst="SIN", lt=I):
    return LinkReport(src, dst, lt, 120.0, 0.01, t)


class TestControllerQueries:
    def test_outage_window(self):
        inj = FaultInjector(FaultSchedule.of(controller_outage(10.0, 20.0)))
        assert inj.controller_down(5.0) is None
        assert inj.controller_down(10.0) is not None
        assert inj.controller_down(20.0) is None

    def test_first_matching_outage_returned(self):
        early = controller_outage(0.0, 100.0)
        late = controller_outage(50.0, 60.0)
        inj = FaultInjector(FaultSchedule.of(late, early))
        assert inj.controller_down(55.0) is early


def _blackout(injector, hops, now):
    """`probe_blackout` over the directed links `hops`, as columns."""
    codes = ("HGH", "SIN", "FRA")
    src, dst, tier = (np.array(column) for column in zip(*(
        (codes.index(a), codes.index(b), TYPE_INDEX[lt])
        for a, b, lt in hops)))
    return injector.probe_blackout(codes, src, dst, tier, now)


class TestProbeQueries:
    def test_link_scoped_blackout(self):
        spec = replace(probe_blackout(0.0, 10.0, region="HGH"), dst="SIN",
                       link_type=I)
        inj = FaultInjector(FaultSchedule.of(spec))
        hops = [("HGH", "SIN", P), ("HGH", "SIN", I), ("HGH", "FRA", I),
                ("SIN", "HGH", I)]
        assert _blackout(inj, hops, 5.0) == {1: spec}
        assert _blackout(inj, hops, 15.0) == {}

    def test_first_covering_blackout_answers_for_a_link(self):
        wide = probe_blackout(0.0, 10.0, region="HGH")
        narrow = replace(probe_blackout(0.0, 10.0, region="HGH"), dst="SIN")
        inj = FaultInjector(FaultSchedule.of(narrow, wide))
        first = inj.schedule.by_kind(wide.kind)[0]
        other = narrow if first is wide else wide
        covered = _blackout(inj, [("HGH", "SIN", I), ("HGH", "FRA", P),
                                  ("FRA", "HGH", I)], 5.0)
        assert covered == {0: first, 1: wide}
        assert inj.fault_id(covered[0]) != inj.fault_id(other)

    def test_region_blackout_requires_region_wide_spec(self):
        narrow = FaultInjector(FaultSchedule.of(
            replace(probe_blackout(0.0, 10.0, region="HGH"), dst="SIN")))
        wide = FaultInjector(FaultSchedule.of(
            probe_blackout(0.0, 10.0, region="HGH")))
        assert not narrow.region_blackout("HGH", 5.0)
        assert wide.region_blackout("HGH", 5.0)
        assert not wide.region_blackout("SIN", 5.0)


def _batch(*reports):
    """The reports as one `ReportBatch` over the regions they name."""
    codes = tuple(sorted({r.src for r in reports} | {r.dst for r in reports}))
    return ReportBatch(
        codes, np.array([codes.index(r.src) for r in reports]),
        np.array([codes.index(r.dst) for r in reports]),
        np.array([TYPE_INDEX[r.link_type] for r in reports]),
        np.array([r.latency_ms for r in reports]),
        np.array([r.loss_rate for r in reports]),
        np.array([r.reported_at for r in reports]))


def _through(inj, batch):
    """`batch` as a NIB behind `inj` lets it through."""
    nib = NetworkInformationBase(batch.codes)
    nib.fault_filter = inj
    return nib._filtered_batch(batch)


class TestReportFilter:
    def test_untouched_report_returned_by_identity(self):
        inj = FaultInjector(FaultSchedule.of(
            report_drop(100.0, 10.0, region="HGH")))
        batch = _batch(_report(50.0))
        assert inj.filter_report(batch) is None
        assert _through(inj, batch) is batch
        assert inj.counters.total() == 0

    def test_certain_drop_needs_no_rng(self):
        inj = FaultInjector(FaultSchedule.of(
            report_drop(0.0, 10.0, region="HGH")))
        faults = inj.filter_report(_batch(_report(5.0), _report(5.0, "SIN",
                                                                "HGH")))
        assert faults.dropped.tolist() == [True, False]
        assert not faults.staled.any()
        assert inj.counters.reports_dropped == 1

    def test_probabilistic_drop_uses_injector_rng(self):
        """A drop is decided by the injector's seed and (fault, link,
        instant) alone: the same in any query order and batching, and
        independent between links at one instant."""
        schedule = FaultSchedule.of(replace(report_drop(0.0, 1000.0),
                                            probability=0.5))
        reports = [_report(0.4 * k, dst=dst, lt=lt) for k in range(100)
                   for dst in ("SIN", "FRA") for lt in (I, P)]

        def dropped(seed, order):
            inj = FaultInjector(schedule, seed=seed)
            gone = set()
            for k in order:
                faults = inj.filter_report(_batch(reports[k]))
                if faults is not None and faults.dropped[0]:
                    gone.add(k)
            assert inj.counters.reports_dropped == len(gone)
            return gone
        forward = dropped(7, range(len(reports)))
        assert 0 < len(forward) < len(reports)
        assert dropped(7, np.random.default_rng(1).permutation(
            len(reports))) == forward
        assert dropped(8, range(len(reports))) != forward
        per_link = [{k // 4 for k in forward if k % 4 == j} for j in range(4)]
        assert len({frozenset(s) for s in per_link}) == 4
        whole = FaultInjector(schedule, seed=7).filter_report(
            _batch(*reports))
        assert set(np.flatnonzero(whole.dropped).tolist()) == forward

    def test_staleness_shifts_timestamp_into_the_past(self):
        inj = FaultInjector(FaultSchedule.of(
            report_staleness(0.0, 100.0, staleness_s=30.0)))
        out = _through(inj, _batch(_report(50.0)))
        assert len(out) == 1
        assert out.reported_at[0] == 20.0
        assert out.latency_ms[0] == 120.0  # payload untouched
        assert inj.counters.reports_staled == 1

    def test_staleness_clamped_at_zero(self):
        inj = FaultInjector(FaultSchedule.of(
            report_staleness(0.0, 100.0, staleness_s=1e6)))
        assert inj.filter_report(_batch(_report(50.0))).reported_at[0] == 0.0


class TestInstallQueries:
    def test_delay_takes_the_max_of_matching_specs(self):
        inj = FaultInjector(FaultSchedule.of(
            install_delay(0.0, 10.0, delay_s=5.0),
            install_delay(0.0, 10.0, delay_s=20.0, region="HGH")))
        assert inj.install_delay("HGH", 5.0) == 20.0
        assert inj.install_delay("SIN", 5.0) == 5.0
        assert inj.install_delay("HGH", 15.0) == 0.0

    def test_keep_fraction_takes_the_min(self):
        inj = FaultInjector(FaultSchedule.of(
            install_partial(0.0, 10.0, keep_fraction=0.8),
            install_partial(0.0, 10.0, keep_fraction=0.25, region="HGH")))
        assert inj.install_keep_fraction("HGH", 5.0) == 0.25
        assert inj.install_keep_fraction("SIN", 5.0) == 0.8
        assert inj.install_keep_fraction("HGH", 50.0) == 1.0


class TestPlatformLoad:
    def test_load_is_one_outside_windows(self):
        inj = FaultInjector(FaultSchedule.of(
            platform_load(10.0, 10.0, load=8.0, region="SIN")))
        assert inj.platform_load("SIN", 5.0) == 1.0
        assert inj.platform_load("SIN", 15.0) == 8.0
        assert inj.platform_load("HGH", 15.0) == 1.0


class TestCrashWindows:
    def test_returns_only_crash_specs(self):
        crash = replace(gateway_crash(10.0, 60.0, region="HGH"), count=2)
        inj = FaultInjector(FaultSchedule.of(
            crash, controller_outage(0.0, 5.0)))
        assert inj.crash_windows() == [crash]


class TestTruncateInstall:
    def test_keeps_lowest_stream_ids(self):
        entries = {3: ("SIN", I), 1: ("FRA", P), 2: ("SIN", P), 9: ("FRA", I)}
        kept = truncate_install(entries, 0.5)
        assert sorted(kept) == [1, 2]
        assert kept[1] == ("FRA", P)

    @pytest.mark.parametrize("frac,expected", [
        (0.0, []), (0.24, []), (0.5, [1, 2]), (0.99, [1, 2, 3])])
    def test_fraction_floors(self, frac, expected):
        entries = {1: ("A", I), 2: ("B", I), 3: ("C", I), 4: ("D", I)}
        assert sorted(truncate_install(entries, frac)) == expected
