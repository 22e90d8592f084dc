"""Tests for the declarative fault specifications and schedules."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.faults import (FaultInjector, FaultKind, FaultSchedule, FaultSpec,
                          controller_outage, gateway_crash, install_delay,
                          install_partial, platform_load, probe_blackout,
                          report_drop, report_staleness)
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_INDEX

I = LinkType.INTERNET
P = LinkType.PREMIUM


class TestFaultSpec:
    def test_end_and_active_window_is_half_open(self):
        spec = probe_blackout(100.0, 50.0, region="HGH")
        assert spec.end_s == 150.0
        assert not spec.active(99.9)
        assert spec.active(100.0)
        assert spec.active(149.9)
        assert not spec.active(150.0)

    def test_default_duration_is_open_ended(self):
        spec = report_drop(10.0, math.inf, region="HGH")
        assert math.isinf(spec.end_s)
        assert spec.active(1e12)

    def test_region_matching(self):
        assert probe_blackout(0.0, 1.0, region="HGH").matches_region("HGH")
        assert not probe_blackout(0.0, 1.0,
                                  region="HGH").matches_region("SIN")
        assert probe_blackout(0.0, 1.0).matches_region("SIN")  # wildcard

    def test_link_matching_narrows_by_dst_and_tier(self):
        """One match mask over link columns: (HGH, SIN, I) only."""
        spec = replace(probe_blackout(0.0, 1.0, region="HGH"), dst="SIN",
                       link_type=I)
        codes = ("HGH", "SIN", "FRA")
        hops = [("HGH", "SIN", I), ("HGH", "SIN", P), ("HGH", "FRA", I),
                ("SIN", "HGH", I)]
        src, dst, tier = (np.array(column) for column in zip(*(
            (codes.index(a), codes.index(b), TYPE_INDEX[lt])
            for a, b, lt in hops)))
        assert FaultInjector._matches(spec, codes, src, dst, tier).tolist() \
            == [True, False, False, False]

    @pytest.mark.parametrize("bad", [
        lambda: FaultSpec(FaultKind.PROBE_BLACKOUT, math.inf, 1.0),
        lambda: FaultSpec(FaultKind.PROBE_BLACKOUT, 0.0, 0.0),
        lambda: FaultSpec(FaultKind.PROBE_BLACKOUT, 0.0, -5.0),
        lambda: replace(gateway_crash(0.0, 1.0, region="HGH"), count=0),
        lambda: replace(report_drop(0.0, 1.0), probability=0.0),
        lambda: replace(report_drop(0.0, 1.0), probability=1.5),
        lambda: report_staleness(0.0, 1.0, staleness_s=0.0),
        lambda: install_delay(0.0, 1.0, delay_s=0.0),
        lambda: install_partial(0.0, 1.0, keep_fraction=1.0),
        lambda: platform_load(0.0, 1.0, load=1.0),
        lambda: controller_outage(10.0, 10.0),
        lambda: FaultSpec(FaultKind.CONTROLLER_OUTAGE, 0.0, math.inf),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_json_round_trip(self):
        spec = replace(report_drop(5.0, 20.0, region="HGH"), dst="SIN",
                       link_type=P, probability=0.25)
        assert FaultSpec.from_json(spec.to_json()) == spec

    def test_json_round_trip_infinite_duration(self):
        spec = platform_load(5.0, math.inf, load=4.0, region="FRA")
        doc = spec.to_json()
        assert doc["duration_s"] is None  # inf is not valid JSON
        assert FaultSpec.from_json(doc) == spec


class TestFaultSchedule:
    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule.empty()
        assert FaultSchedule.empty().specs == ()

    def test_specs_sorted_regardless_of_construction_order(self):
        a = probe_blackout(50.0, 1.0, region="HGH")
        b = controller_outage(10.0, 20.0)
        c = probe_blackout(50.0, 1.0, region="FRA")
        assert FaultSchedule.of(a, b, c).specs == \
            FaultSchedule.of(c, a, b).specs
        assert FaultSchedule.of(a, b, c).specs[0] is b  # earliest first
        # Same instant: ordered by (kind, region).
        assert [s.region for s in FaultSchedule.of(a, c).specs] == \
            ["FRA", "HGH"]

    def test_by_kind_and_active(self):
        sched = FaultSchedule.of(
            controller_outage(0.0, 5.0),
            probe_blackout(2.0, 2.0, region="HGH"),
            probe_blackout(10.0, 2.0, region="HGH"))
        blackouts = sched.by_kind(FaultKind.PROBE_BLACKOUT)
        assert len(blackouts) == 2
        assert [s.active(3.0) for s in blackouts] == [True, False]
        assert not any(s.active(6.0) for s in blackouts)

    def test_schedule_json_round_trip(self):
        sched = FaultSchedule.of(
            replace(gateway_crash(10.0, 60.0, region="HGH"), count=2,
                    restart=False),
            report_staleness(0.0, math.inf, staleness_s=30.0),
            controller_outage(5.0, 25.0))
        text = json.dumps(sched.to_json())
        assert FaultSchedule.from_json(json.loads(text)) == sched

    def test_from_json_dedupes_duplicate_specs_with_warning(self):
        crash = gateway_crash(10.0, 60.0, region="HGH")
        outage = controller_outage(5.0, 25.0)
        docs = [crash.to_json(), outage.to_json(), crash.to_json()]
        with pytest.warns(UserWarning, match="duplicate"):
            sched = FaultSchedule.from_json(docs)
        assert len(sched.specs) == 2
        assert sched == FaultSchedule.of(crash, outage)

    def test_from_json_keeps_distinct_same_instant_specs(self):
        # Same kind + start but different regions are NOT duplicates.
        docs = [probe_blackout(2.0, 2.0, region="HGH").to_json(),
                probe_blackout(2.0, 2.0, region="SIN").to_json()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sched = FaultSchedule.from_json(docs)
        assert len(sched.specs) == 2
