"""Tests for Algorithm 1 (path control)."""

import numpy as np
import pytest

from repro.controlplane.capacity import capacity_control
from repro.controlplane.model import ControlConfig
from repro.controlplane import model, pathcontrol
from repro.controlplane.pathcontrol import EpochSolveContext, path_control
from repro.controlplane.reactionplan import generate_reaction_plans
from repro.experiments.base import planet_underlay
from repro.traffic.cohorts import CohortWorkload
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import Stream, VIDEO_PROFILES
from repro.underlay.linkstate import LinkType
from tests.controlplane.golden_workloads import path_result_digest
from tests.snapshots import snapshot_of
from tests.tables import region_traffic, table_of

I = LinkType.INTERNET
P = LinkType.PREMIUM

CODES = ["A", "B", "C"]


def make_state(lat=None, loss=None, premium_lat=None, premium_loss=None):
    """Triangle topology snapshot: defaults are healthy symmetric links."""
    lat = lat or {}
    loss = loss or {}
    premium_lat = premium_lat or {}
    premium_loss = premium_loss or {}

    def state(a, b, t):
        if t is I:
            return (lat.get((a, b), 100.0), loss.get((a, b), 0.0001))
        return (premium_lat.get((a, b), 80.0),
                premium_loss.get((a, b), 0.00001))
    return snapshot_of(CODES, state)


def stream(sid, src, dst, mbps):
    return Stream(sid, src, dst, mbps, VIDEO_PROFILES[2])


def table(*streams):
    return table_of(streams, CODES)


def cfg(**overrides):
    defaults = dict(internet_bandwidth_mbps=10000.0,
                    premium_bandwidth_mbps=5000.0)
    defaults.update(overrides)
    return ControlConfig(**defaults)


@pytest.fixture()
def small_containers(monkeypatch):
    """10 Mbps per container."""
    monkeypatch.setattr(model, "CONTAINER_CAPACITY_MBPS", 10.0)


def gw(n=4):
    return {c: n for c in CODES}


def pieces(result, sid):
    """The assignments carrying stream `sid`, in assignment order."""
    return [a for a in result.assignments if a.stream.stream_id == sid]


class TestBasicAssignment:
    def test_single_stream_direct_path(self):
        result = path_control(table(stream(1, "A", "B", 10.0)), CODES,
                              make_state(), cfg(), gateways=gw())
        assert len(result.assignments) == 1
        a = result.assignments[0]
        # Without fee information premium (80 ms) legitimately beats
        # Internet (100 ms); either way the path must be the direct hop.
        assert a.path.regions == ("A", "B")
        assert a.mbps == 10.0
        assert a.meets_constraints
        assert not result.unassigned

    def test_all_demand_assigned(self):
        streams = table_of([stream(i, "A", "B", 5.0) for i in range(10)],
                           CODES)
        result = path_control(streams, CODES, make_state(), cfg(),
                              gateways=gw())
        assert result.total_assigned_mbps() == pytest.approx(50.0)

    def test_internet_preferred_when_healthy(self):
        """The hybrid prefers the cheap tier when its quality suffices."""
        from repro.underlay.pricing import PricingModel
        from repro.underlay.regions import default_regions
        fees = PricingModel(default_regions()[:3], np.random.default_rng(0))
        codes = [r.code for r in default_regions()[:3]]

        def state(a, b, t):
            return (100.0, 0.0001) if t is I else (95.0, 0.00001)

        result = path_control(table_of([Stream(1, codes[0], codes[1], 10.0,
                                               VIDEO_PROFILES[0])], codes),
                              codes, snapshot_of(codes, state), cfg(),
                              gateways={c: 4 for c in codes}, fees=fees)
        # Premium is 5 ms faster but ~7x the fee: Internet must win.
        assert result.assignments[0].path.hops == ((codes[0], codes[1], I),)

    def test_premium_chosen_when_internet_bad(self):
        state = make_state(loss={("A", "B"): 0.2, ("A", "C"): 0.2,
                                 ("C", "B"): 0.2, ("B", "C"): 0.2,
                                 ("B", "A"): 0.2, ("C", "A"): 0.2})
        result = path_control(table(stream(1, "A", "B", 10.0)), CODES, state,
                              cfg(), gateways=gw())
        assert result.assignments[0].path.hops == (("A", "B", P),)

    def test_relay_path_when_direct_degraded(self):
        # A->B Internet is terrible; A->C->B is fine; premium costly.
        state = make_state(lat={("A", "B"): 3000.0},
                           premium_lat={("A", "B"): 500.0})
        result = path_control(table(stream(1, "A", "B", 10.0)), CODES, state,
                              cfg(), gateways=gw())
        path = result.assignments[0].path
        assert path.regions == ("A", "C", "B")

    def test_forwarding_tables_match_paths(self):
        state = make_state(lat={("A", "B"): 3000.0},
                           premium_lat={("A", "B"): 500.0})
        result = path_control(table(stream(7, "A", "B", 10.0)), CODES, state,
                              cfg(), gateways=gw())
        assert result.forwarding_tables["A"][7][0] == "C"
        assert result.forwarding_tables["C"][7][0] == "B"


class TestCapacityConstraints:
    def test_region_capacity_limits_assignment(self, small_containers):
        config = cfg()
        result = path_control(table(stream(1, "A", "B", 100.0)), CODES,
                              make_state(), config,
                              gateways={"A": 2, "B": 2, "C": 2})
        # 2 containers x 10 Mbps per region: at most 20 Mbps assigned.
        assert result.total_assigned_mbps() <= 20.0 + 1e-6
        assert result.unassigned

    def test_uncapacitated_mode_assigns_everything(self, small_containers):
        config = cfg()
        result = path_control(table(stream(1, "A", "B", 100.0)), CODES,
                              make_state(), config, gateways=None)
        assert not result.unassigned

    def test_internet_bandwidth_cap_forces_spill(self):
        config = cfg(internet_bandwidth_mbps=30.0)
        result = path_control(table(stream(1, "A", "B", 100.0)), CODES,
                              make_state(), config, gateways=gw(64))
        inet = result.internet_egress["A"]
        assert inet <= 30.0 + 1e-6
        # The remainder rides premium or relays.
        assert result.total_assigned_mbps() == pytest.approx(100.0)

    def test_premium_pair_cap_respected(self):
        state = make_state(loss={(a, b): 0.5 for a in CODES for b in CODES
                                 if a != b})  # force premium
        config = cfg(premium_bandwidth_mbps=25.0)
        result = path_control(table(stream(1, "A", "B", 100.0)), CODES, state,
                              config, gateways=gw(64))
        for usage in result.premium_usage.values():
            assert usage <= 25.0 + 1e-6

    def test_demand_split_across_paths_when_needed(self):
        config = cfg(internet_bandwidth_mbps=30.0,
                     premium_bandwidth_mbps=40.0)
        result = path_control(table(stream(1, "A", "B", 100.0)), CODES,
                              make_state(), config, gateways=gw(64))
        assert len(pieces(result, 1)) >= 2

    def test_region_traffic_counts_every_touched_region(self):
        state = make_state(lat={("A", "B"): 3000.0},
                           premium_lat={("A", "B"): 500.0})
        result = path_control(table(stream(1, "A", "B", 10.0)), CODES, state,
                              cfg(), gateways=gw())
        traffic = region_traffic(result)
        assert traffic["A"] == pytest.approx(10.0)
        assert traffic["C"] == pytest.approx(10.0)
        assert traffic["B"] == pytest.approx(10.0)


class TestOrderingHeuristic:
    def test_long_latency_streams_get_first_pick(self, small_containers):
        """With tight capacity, the highest-latency pair wins the relay."""
        # Region B's processing capacity is the contended resource; A->B
        # is the long path.  Premium is priced out by making it slow, so
        # latencies are Internet latencies.
        slow_premium = {(a, b): 2000.0 for a in CODES for b in CODES
                        if a != b}
        state = make_state(lat={("A", "B"): 400.0, ("C", "B"): 100.0,
                                ("A", "C"): 100.0},
                           premium_lat=slow_premium)
        config = cfg()
        # Region B can process only 10 Mbps total.
        gateways = {"A": 64, "B": 1, "C": 64}
        long_stream = stream(1, "A", "B", 10.0)
        short_stream = stream(2, "C", "B", 10.0)
        result = path_control(table(short_stream, long_stream), CODES, state,
                              config, gateways=gateways)
        assigned = {a.stream.stream_id: a.mbps for a in result.assignments}
        # The A->B stream (higher latency) is served first.
        assert assigned.get(1, 0.0) == pytest.approx(10.0)

    def test_used_gateways_reflect_headroom(self, small_containers,
                                            monkeypatch):
        monkeypatch.setattr(pathcontrol, "CAPACITY_HEADROOM", 1.0)
        config = cfg()
        result = path_control(table(stream(1, "A", "B", 25.0)), CODES,
                              make_state(), config, gateways=gw(64))
        assert result.used_gateways["A"] == 3  # ceil(25/10)


class TestConstraintFlag:
    def test_infeasible_quality_marked(self):
        # Loss is above the limit everywhere: traffic still flows (the
        # production system must carry it) but the assignment is flagged.
        # Note the *latency* limit scales with the direct premium latency
        # by design, so uniform high latency alone stays 'feasible'.
        all_pairs = {(a, b): 0.08 for a in CODES for b in CODES if a != b}
        state = make_state(loss=dict(all_pairs),
                           premium_loss=dict(all_pairs))
        result = path_control(table(stream(1, "A", "B", 10.0)), CODES, state,
                              cfg(), gateways=gw())
        assert result.assignments
        assert not result.assignments[0].meets_constraints

    def test_max_hops_respected(self):
        result = path_control(table(stream(1, "A", "B", 10.0)), CODES,
                              make_state(), cfg(max_hops=2), gateways=gw())
        assert len(result.assignments[0].path.hops) <= 2


class TestStatistics:
    def test_empty_streams(self):
        result = path_control(table(), CODES, make_state(), cfg(),
                              gateways=gw())
        assert result.assignments == []
        assert result.total_assigned_mbps() == 0.0


class TestRebuildBudget:
    @pytest.fixture()
    def no_rebuilds(self, monkeypatch):
        monkeypatch.setattr(pathcontrol, "REBUILD_BUDGET", 0)

    def test_exhaustion_warns_instead_of_silently_truncating(self,
                                                            no_rebuilds):
        """Streams left unplaced when the budget runs out must be loud."""
        streams = table(stream(1, "A", "B", 600.0),
                        stream(2, "A", "B", 600.0))
        with pytest.warns(UserWarning, match="rebuild budget"):
            result = path_control(streams, CODES, make_state(), cfg(),
                                  gateways={c: 1 for c in CODES})
        # The residual demand still falls through to the best-effort
        # pass / unassigned — the warning changes visibility, not routing.
        assigned = result.total_assigned_mbps()
        residual = sum(r for __, r in result.unassigned)
        assert assigned + residual == pytest.approx(1200.0)
        assert residual > 0

    def test_no_graph_is_built_past_the_budget(self, no_rebuilds,
                                              monkeypatch):
        """The budget is checked before a rebuild: with none allowed, the
        solve builds the first graph and the fallback's, and counts no
        rebuild."""
        built = []

        class Counting(pathcontrol._ShortestPaths):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(pathcontrol, "_ShortestPaths", Counting)
        streams = table(stream(1, "A", "B", 600.0),
                        stream(2, "A", "B", 600.0))
        with pytest.warns(UserWarning, match=r"\(0 rebuilds\)"):
            result = path_control(streams, CODES, make_state(), cfg(),
                                  gateways={c: 1 for c in CODES})
        assert len(built) == 2 and result.graph_rebuilds == 0

    def test_sufficient_budget_does_not_warn(self):
        import warnings as _warnings

        streams = table(stream(1, "A", "B", 600.0),
                        stream(2, "A", "B", 600.0))
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", UserWarning)
            path_control(streams, CODES, make_state(), cfg(),
                         gateways=gw())

    def test_exhaustion_counter_increments(self, no_rebuilds):
        from repro import obs

        streams = table(stream(1, "A", "B", 600.0),
                        stream(2, "A", "B", 600.0))
        with obs.capture() as hub:
            with pytest.warns(UserWarning, match="rebuild budget"):
                path_control(streams, CODES, make_state(), cfg(),
                             gateways={c: 1 for c in CODES})
        snap = hub.metrics.snapshot()
        assert snap["pathcontrol.rebuild_budget_exhausted"]["value"] >= 1


class TestAssignmentIndex:
    def test_split_stream_returns_every_piece(self):
        # 1500 Mbps cannot fit either A->B link alone: the stream splits.
        streams = table(stream(7, "A", "B", 1500.0))
        result = path_control(streams, CODES, make_state(),
                              cfg(internet_bandwidth_mbps=1000.0,
                                  premium_bandwidth_mbps=800.0),
                              gateways=gw())
        split = pieces(result, 7)
        assert len(split) >= 2
        assert sum(a.mbps for a in split) == pytest.approx(1500.0)


class TestEpochSolveContext:
    """Threading one context through an epoch's solver calls changes
    the work done, never the output."""

    @pytest.fixture(scope="class")
    def planet(self):
        underlay = planet_underlay(20, seed=7, horizon_s=900.0)
        matrix = TrafficMatrix.from_model(
            DemandModel(underlay.regions, seed=7), 8 * 3600.0)
        streams = CohortWorkload(seed=7, cohorts_per_pair=2).decompose(matrix)
        return underlay, streams, underlay.snapshot(450.0)

    @staticmethod
    def epoch(planet, gateways, context, with_r_next=False):
        """Steps 1-3 of one epoch; `with_r_next` also returns R_next,
        the uncapacitated run capacity control sizes the fleet from."""
        underlay, streams, snap = planet
        codes, fees, config = underlay.codes, underlay.pricing, ControlConfig()
        r_cur = path_control(streams, codes, snap, config, gateways=gateways,
                             fees=fees, context=context)
        decision = capacity_control(streams, codes, snap, config, gateways,
                                    r_cur, fees=fees, context=context)
        plans = generate_reaction_plans(r_cur, snap)
        if not with_r_next:
            return r_cur, decision, plans
        r_next = path_control(streams, codes, snap, config, gateways=None,
                              fees=fees, context=context)
        return r_cur, decision, plans, r_next

    def test_outputs_equal_with_and_without_a_context(self, planet):
        gateways = {c: 2 for c in planet[0].codes}
        shared = list(self.epoch(planet, gateways, EpochSolveContext(),
                                 with_r_next=True))
        apart = list(self.epoch(planet, gateways, None, with_r_next=True))
        assert apart[0].graph_rebuilds > 0  # the caches outlived a rebuild
        # Bit for bit: assignments, tables, usage, the capacity targets,
        # every plan and the uncapacitated result.
        for results in (shared, apart):
            results[0] = path_result_digest(results[0])
            results[3] = path_result_digest(results[3])
        assert shared == apart

    def test_first_dp_is_shared_once_per_epoch(self, planet):
        from repro import obs

        gateways = {c: 2 for c in planet[0].codes}
        with obs.capture() as hub:
            for epochs in (1, 2):
                self.epoch(planet, gateways, EpochSolveContext())
                reuses = hub.metrics.snapshot()["pathcontrol.context_sp_reuses"]
                assert reuses["value"] == epochs

    def test_first_dp_not_shared_when_a_region_has_no_gateway(self, planet):
        from repro import obs

        # The capacitated first graph masks the empty region's edges;
        # the uncapacitated one does not, so it needs its own DP.
        gateways = {c: 2 for c in planet[0].codes}
        gateways[planet[0].codes[0]] = 0
        with obs.capture() as hub:
            self.epoch(planet, gateways, EpochSolveContext())
        assert "pathcontrol.context_sp_reuses" not in hub.metrics.snapshot()

    def test_a_context_serves_one_snapshot(self, planet):
        underlay, streams, snap = planet
        context = EpochSolveContext()
        path_control(streams, underlay.codes, snap, ControlConfig(),
                     fees=underlay.pricing, context=context)
        with pytest.raises(ValueError, match="new one per epoch"):
            path_control(streams, underlay.codes, underlay.snapshot(451.0),
                         ControlConfig(), fees=underlay.pricing,
                         context=context)


@pytest.mark.parametrize("solve", [
    lambda streams, codes, snap: path_control(
        streams, codes, snap, cfg(), gateways=gw()),
    lambda streams, codes, snap: capacity_control(
        streams, codes, snap, cfg(), gw(),
        path_control(streams, CODES, snap, cfg(), gateways=gw())),
], ids=["path_control", "capacity_control"])
def test_solver_rejects_a_snapshot_in_another_region_order(solve):
    """The solver indexes its capacity arrays in `codes` order, so a
    snapshot over the same regions in another order is an error, not a
    silent relabelling."""
    streams = table(stream(1, "A", "B", 10.0))
    snap = make_state()
    with pytest.raises(ValueError, match="do not match"):
        solve(streams, ["C", "B", "A"], snap)


def test_solver_rejects_a_table_in_another_region_order():
    """Stream rows index regions in the table's order, so a table over
    the solver's regions in another order is an error too."""
    streams = table_of([stream(1, "A", "B", 10.0)], ["C", "B", "A"])
    with pytest.raises(ValueError, match="do not match"):
        path_control(streams, CODES, make_state(), cfg(), gateways=gw())
