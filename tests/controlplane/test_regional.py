"""Tests for the per-partition degraded-mode sub-controllers."""

import pytest

from repro.controlplane.controller import Controller
from repro.controlplane.model import ControlConfig
from repro.controlplane.nib import LinkReport
from repro.controlplane.regional import (REGIONAL_STREAM_BASE,
                                         RegionalController, regional_control)
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.linkstate import LinkType

CODES = ("HGH", "SIN")


def _reports(codes, t=0.0):
    reports = []
    for a in codes:
        for b in codes:
            if a == b:
                continue
            reports.append(LinkReport(a, b, LinkType.INTERNET, 100.0,
                                      0.001, t))
            reports.append(LinkReport(a, b, LinkType.PREMIUM, 80.0,
                                      0.00001, t))
    return reports


def _sub(regions=CODES, base_version=3, seed=23, nib_reports=None):
    def make_controller(codes, *, seed):
        return Controller(
            codes, ControlConfig(container_capacity_mbps=100.0),
            sib_params={"min_history": 4, "refit_every": 2}, seed=seed)

    return RegionalController(
        regions, make_controller=make_controller,
        base_version=base_version, seed=seed, nib_reports=nib_reports)


class TestConfig:
    def test_convenience_constructor_arms(self):
        assert regional_control() is True


class TestController:
    def test_regions_sorted_and_unique(self):
        sub = _sub(("SIN", "HGH"))
        assert sub.regions == ("HGH", "SIN")
        with pytest.raises(ValueError, match="repeats"):
            _sub(("HGH", "HGH"))

    def test_versions_allocated_strictly_above_base(self):
        sub = _sub(base_version=7)
        assert sub.version_high == 7
        assert sub.next_version() == 8
        assert sub.next_version() == 9
        assert sub.version_high == 9

    def test_covers_and_matrix_restriction(self):
        sub = _sub()
        assert sub.covers("HGH") and not sub.covers("FRA")
        matrix = TrafficMatrix(
            ["HGH", "SIN", "FRA"],
            {("HGH", "SIN"): 10.0, ("HGH", "FRA"): 20.0,
             ("FRA", "SIN"): 30.0})
        cut = sub.restrict_matrix(matrix)
        assert dict(cut.items()) == {("HGH", "SIN"): 10.0}

    def test_nib_seed_filters_to_intra_partition_links(self):
        from repro.controlplane.nib import NetworkInformationBase

        nib = NetworkInformationBase()
        nib.update_many(_reports(("HGH", "SIN", "FRA")))
        sub = _sub(nib_reports=nib.export_reports())
        docs = sub.controller.nib.export_reports()
        assert docs
        for doc in docs:
            assert {doc["src"], doc["dst"]} <= set(CODES)

    def test_epoch_allocates_regional_band_stream_ids(self):
        sub = _sub()
        sub.ingest_reports(_reports(CODES))
        matrix = TrafficMatrix(list(CODES), {("HGH", "SIN"): 10.0,
                                             ("SIN", "HGH"): 10.0})
        output = sub.run_epoch(0.0, matrix, {c: 4 for c in CODES})
        assert output.path_result.assignments
        for a in output.path_result.assignments:
            assert a.stream.stream_id >= REGIONAL_STREAM_BASE
        assert sub.epochs_run == 1

    def test_ingest_drops_reports_crossing_the_edge(self):
        sub = _sub()
        sub.ingest_reports(_reports(("HGH", "SIN", "FRA")))
        for doc in sub.controller.nib.export_reports():
            assert {doc["src"], doc["dst"]} <= set(CODES)

    def test_sub_seed_is_deterministic_across_processes(self):
        """The sub-controller seed derives from CRC, not `hash()` — the
        same (seed, region set) must yield the same controller seed in
        every process."""
        a, b = _sub(seed=23), _sub(seed=23)
        assert a.sub_seed == b.sub_seed
        other = _sub(("FRA", "HGH"), seed=23)
        assert other.sub_seed != a.sub_seed
