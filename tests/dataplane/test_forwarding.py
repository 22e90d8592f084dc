"""Tests for forwarding tables and effective-path evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.controlplane.model import ControlConfig, OverlayPath
from repro.dataplane.forwarding import (EffectiveSeries, ForwardDecision,
                                        ForwardingTable, backup_path,
                                        effective_path_series, path_detours)
from repro.underlay.linkstate import LinkType
from tests.dataplane import effective_path_oracle as oracle

I = LinkType.INTERNET
P = LinkType.PREMIUM
#: Region A's links to B, C and D, both tiers, in a gateway's order.
LINKS = {(dst, tier): k for k, (dst, tier)
         in enumerate((dst, tier) for dst in "BCD" for tier in (I, P))}


class TestForwardingTable:
    def test_install_and_lookup(self):
        table = ForwardingTable(LINKS)
        assert table.install({1: ("B", I), 2: ("C", P)}, {1: ("C",)})
        assert table.rows.get(1) == ("B", I)
        assert table.rows.get(2) == ("C", P)
        assert table.rows.get(99) is None
        assert table.plans == {1: ("C",)}

    def test_install_replaces(self):
        table = ForwardingTable(LINKS)
        table.install({1: ("B", I)}, {1: ("C",)})
        table.install({2: ("C", P)}, {})
        assert table.rows.get(1) is None
        assert table.rows == {2: ("C", P)}
        assert table.plans == {}

    def test_version_increments(self):
        """Versions only move forward: equal and newer installs land,
        an older one is refused and changes nothing."""
        table = ForwardingTable(LINKS)
        assert table.installed_version is None and table.installed_at is None
        assert table.install({1: ("B", I)}, {}, version=2, now=10.0)
        assert table.install({1: ("C", I)}, {}, version=2, now=11.0)
        assert table.install({1: ("D", I)}, {1: ("B",)}, version=5, now=12.0)
        assert not table.install({1: ("B", I)}, {}, version=4, now=13.0)
        assert (table.rows, table.plans) == ({1: ("D", I)}, {1: ("B",)})
        assert (table.installed_version, table.installed_at) == (5, 12.0)

    def test_unversioned_install_always_lands(self):
        table = ForwardingTable(LINKS)
        table.install({1: ("B", I)}, {}, version=3, now=1.0)
        assert table.install({1: ("C", I)}, {})
        assert table.rows.get(1) == ("C", I)
        assert (table.installed_version, table.installed_at) == (3, 1.0)

    def test_table_keeps_its_own_copy(self):
        entries, plans = {1: ("B", I)}, {1: ("C",)}
        table = ForwardingTable(LINKS)
        table.install(entries, plans)
        entries[2] = ("C", I)
        plans.clear()
        assert table.rows == {1: ("B", I)}
        assert table.plans == {1: ("C",)}

    def test_rows_compile_to_shared_decisions(self):
        """Each row compiles to its normal, backup and demoted decisions,
        each carrying its link's position; rows that ride the same link
        share the decision objects."""
        table = ForwardingTable(LINKS)
        table.install({1: ("B", I), 2: ("B", I), 3: ("D", P)},
                      {1: ("C", "D"), 3: ()})
        normal, backup, demoted = table.routes[1]
        assert (normal, backup, demoted) == (
            ForwardDecision("B", I, False), ForwardDecision("C", P, True),
            ForwardDecision("B", P, False, degraded_mode=True))
        assert (normal.link, backup.link, demoted.link) == (
            LINKS[("B", I)], LINKS[("C", P)], LINKS[("B", P)])
        assert table.routes[2][0] is normal and table.routes[2][2] is demoted
        # No plan (or an empty one): the backup is the premium link to
        # the normal next hop.
        assert table.routes[2][1] == ForwardDecision("B", P, True)
        assert table.routes[3][1] == ForwardDecision("D", P, True)
        table.install({4: ("C", I)}, {})
        assert list(table.routes) == [4]

    def test_a_hop_off_the_regions_links_is_refused(self):
        table = ForwardingTable(LINKS)
        table.install({1: ("B", I)}, {})
        with pytest.raises(KeyError):
            table.install({1: ("A", I)}, {})
        assert table.rows == {1: ("B", I)} and list(table.routes) == [1]


def _series_env(lat_map, loss_map=None, reaction_map=None, n=10):
    """Build hop_series/reaction/plan functions over an n-sample grid."""
    loss_map = loss_map or {}
    reaction_map = reaction_map or {}
    times = np.arange(n, dtype=float)

    def hop_series(hop):
        lat = np.full(n, lat_map.get(hop, 100.0))
        loss = np.full(n, loss_map.get(hop, 0.0))
        return lat, loss

    def reaction(hop):
        return reaction_map.get(hop, np.zeros(n, dtype=bool))

    return times, hop_series, reaction


def one_pair(path, times, hop_series, reaction, plan_for_region,
             enable_reaction=True):
    """The columnar pass over `path` alone, as the grid engine drives
    it (`path_detours`, no detours without reaction), as one row."""
    row = (path_detours(path, reaction, plan_for_region) if enable_reaction
           else [None] * len(path.hops))
    out = effective_path_series([path], times, hop_series, reaction, [row])
    return EffectiveSeries(out.times, out.latency_ms[0], out.loss_rate[0],
                           out.on_backup[0])


class TestEffectivePathSeries:
    def test_normal_path_sums_hops(self):
        path = OverlayPath.via(["A", "B", "C"], I)
        times, hs, ra = _series_env({("A", "B", I): 50.0,
                                     ("B", "C", I): 70.0})
        out = one_pair(path, times, hs, ra, lambda r: None)
        np.testing.assert_allclose(out.latency_ms, 120.0)
        assert not out.on_backup.any()

    def test_loss_compounds_along_path(self):
        path = OverlayPath.via(["A", "B", "C"], I)
        times, hs, ra = _series_env({}, {("A", "B", I): 0.1,
                                         ("B", "C", I): 0.2})
        out = one_pair(path, times, hs, ra, lambda r: None)
        np.testing.assert_allclose(out.loss_rate, 1 - 0.9 * 0.8)

    def test_reaction_switches_to_plan(self):
        path = OverlayPath.direct("A", "C", I)
        flags = np.zeros(10, dtype=bool)
        flags[4:8] = True
        times, hs, ra = _series_env(
            {("A", "C", I): 5000.0, ("A", "B", P): 60.0, ("B", "C", P): 60.0},
            reaction_map={("A", "C", I): flags})
        out = one_pair(path, times, hs, ra,
                       lambda r: ("B", "C") if r == "A" else None)
        np.testing.assert_allclose(out.latency_ms[4:8], 120.0)
        np.testing.assert_allclose(out.latency_ms[:4], 5000.0)
        assert out.on_backup[4:8].all()
        assert out.backup_fraction == pytest.approx(0.4)

    def test_reaction_disabled_keeps_normal_path(self):
        path = OverlayPath.direct("A", "C", I)
        flags = np.ones(10, dtype=bool)
        times, hs, ra = _series_env({("A", "C", I): 5000.0},
                                    reaction_map={("A", "C", I): flags})
        out = one_pair(path, times, hs, ra, lambda r: ("C",),
                       enable_reaction=False)
        np.testing.assert_allclose(out.latency_ms, 5000.0)
        assert not out.on_backup.any()

    def test_missing_plan_falls_back_to_direct_premium(self):
        path = OverlayPath.direct("A", "C", I)
        flags = np.ones(5, dtype=bool)
        times, hs, ra = _series_env({("A", "C", I): 5000.0,
                                     ("A", "C", P): 80.0},
                                    reaction_map={("A", "C", I): flags}, n=5)
        out = one_pair(path, times, hs, ra, lambda r: None)
        np.testing.assert_allclose(out.latency_ms, 80.0)

    def test_first_degraded_hop_wins(self):
        path = OverlayPath.via(["A", "B", "C"], I)
        f1 = np.ones(5, dtype=bool)   # hop A->B degraded
        f2 = np.ones(5, dtype=bool)   # hop B->C also degraded
        times, hs, ra = _series_env(
            {("A", "B", I): 1000.0, ("B", "C", I): 1000.0,
             ("A", "C", P): 90.0, ("B", "C", P): 70.0},
            reaction_map={("A", "B", I): f1, ("B", "C", I): f2}, n=5)

        def plan(region):
            return ("C",)

        out = one_pair(path, times, hs, ra, plan)
        # Switch happens at A (the first degraded hop): A->C premium.
        np.testing.assert_allclose(out.latency_ms, 90.0)

    def test_downstream_hop_reaction_keeps_healthy_prefix(self):
        path = OverlayPath.via(["A", "B", "C"], I)
        f2 = np.ones(5, dtype=bool)
        times, hs, ra = _series_env(
            {("A", "B", I): 40.0, ("B", "C", I): 1000.0,
             ("B", "C", P): 70.0},
            reaction_map={("B", "C", I): f2}, n=5)
        out = one_pair(path, times, hs, ra, lambda r: ("C",))
        # Prefix A->B Internet (40) plus backup B->C premium (70).
        np.testing.assert_allclose(out.latency_ms, 110.0)

    def test_planless_degraded_hop_does_not_mask_downstream(self):
        """Regression: a degraded first hop whose region has NO backup
        plan keeps forwarding normally — its degradation must not mask
        the downstream hop's own (plan-backed) reaction."""
        path = OverlayPath.via(["A", "B", "C"], I)
        f1 = np.ones(5, dtype=bool)   # hop A->B degraded, A has no plan
        f2 = np.ones(5, dtype=bool)   # hop B->C degraded, B reacts
        times, hs, ra = _series_env(
            {("A", "B", I): 40.0, ("B", "C", I): 1000.0,
             ("B", "C", P): 70.0},
            reaction_map={("A", "B", I): f1, ("B", "C", I): f2}, n=5)

        def plan(region):
            # An explicitly empty plan: region A cannot react at all
            # (distinct from None, which falls back to direct premium).
            return () if region == "A" else ("C",)

        out = one_pair(path, times, hs, ra, plan)
        # Traffic still flows A->B on the degraded Internet hop (40ms),
        # then B fires its own backup B->C premium (70ms).
        np.testing.assert_allclose(out.latency_ms, 110.0)
        assert out.on_backup.all()

    def test_backup_loss_replaces_remaining_hops(self):
        path = OverlayPath.direct("A", "C", I)
        flags = np.ones(4, dtype=bool)
        times, hs, ra = _series_env(
            {}, {("A", "C", I): 0.5, ("A", "C", P): 0.001},
            reaction_map={("A", "C", I): flags}, n=4)
        out = one_pair(path, times, hs, ra, lambda r: None)
        np.testing.assert_allclose(out.loss_rate, 0.001)


# --------------------------------------------------------------------------
# The columnar pass against the single-path oracle, row by row
# --------------------------------------------------------------------------
#: Few regions, so that pairs share hops and backups reuse path hops.
REGIONS = "ABCDE"
MAX_HOPS = ControlConfig().max_hops


#: Region -> its backup plans: None (straight to the destination), ()
#: (nowhere to go) or one or two relays.
PLANS = {region: st.one_of(st.none(), st.just(()), st.lists(
    st.sampled_from([r for r in REGIONS if r != region]), min_size=1,
    max_size=2, unique=True).map(tuple)) for region in REGIONS}
ROUTES = st.lists(st.sampled_from(REGIONS), min_size=2,
                  max_size=MAX_HOPS + 1, unique=True)
TIERS = st.sampled_from((I, P))


@st.composite
def fleets(draw):
    """(times, paths, per-pair plans, per-hop series, per-hop flags) for
    1-40 pairs of 1..MAX_HOPS mixed-tier hops."""
    n = draw(st.integers(1, 12))
    times = np.arange(n, dtype=float)
    paths, plans = [], []
    for __ in range(draw(st.integers(1, 40))):
        regions = draw(ROUTES)
        path = OverlayPath(tuple((a, b, draw(TIERS))
                                 for a, b in zip(regions, regions[1:])),
                           tuple(regions))
        paths.append(path)
        plans.append({region: draw(PLANS[region])
                      for region in path.regions[:-1]})
    # Series values come from a drawn seed: hypothesis draws the shape
    # (paths, plans, flag runs), numpy the floats.
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    runs = st.one_of(st.just([True] * n),
                     st.lists(st.booleans(), min_size=n, max_size=n))
    flags = {}
    series = {}
    for path, plan in zip(paths, plans):
        for hop in path.hops:
            if hop not in flags:
                flags[hop] = np.array(draw(runs))
            detour = backup_path(path, hop[0], plan.get)
            for each in path.hops + (detour.hops if detour else ()):
                if each not in series:
                    series[each] = (rng.uniform(1.0, 400.0, n),
                                    rng.uniform(0.0, 0.6, n))
    return times, paths, plans, series, flags


@given(fleet=fleets())
@settings(max_examples=100, deadline=None)
def test_every_row_is_its_path_evaluated_alone(fleet):
    """Latency, loss, backup flags and backup fraction of each pair are
    bit for bit the single-path evaluator's."""
    times, paths, plans, series, flags = fleet
    detours = [path_detours(path, flags.__getitem__, plan.get)
               for path, plan in zip(paths, plans)]
    out = effective_path_series(paths, times, series.__getitem__,
                                flags.__getitem__, detours)
    fractions = out.backup_fraction
    for p, (path, plan) in enumerate(zip(paths, plans)):
        want = oracle.effective_path_series(path, times, series.__getitem__,
                                            flags.__getitem__, plan.get)
        np.testing.assert_array_equal(out.latency_ms[p], want.latency_ms)
        np.testing.assert_array_equal(out.loss_rate[p], want.loss_rate)
        np.testing.assert_array_equal(out.on_backup[p], want.on_backup)
        assert fractions[p] == want.backup_fraction
