"""Scalability of the control algorithms (§5.3).

The paper: "Empirically, the algorithm can finish in two seconds for our
system."  These benchmarks measure the two-step control computation at
the paper's deployment scale (eleven regions, hundreds of stream
entries) and at a hypothetical larger scale, plus the per-epoch cost of
reaction-plan generation.  Unlike the experiment benches these are true
timing benchmarks (multiple rounds).
"""

import itertools

import numpy as np
import pytest

from repro.controlplane.capacity import capacity_control
from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import path_control
from repro.controlplane.reactionplan import generate_reaction_plans
from repro.experiments.base import (planet_underlay, standard_demand,
                                    standard_underlay)
from repro.traffic.cohorts import CohortWorkload
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import StreamWorkload
from repro.underlay.regions import Region, default_regions


@pytest.fixture(scope="module")
def paper_scale():
    """Eleven regions, peak-hour demand, 8 stream chunks per pair."""
    u = standard_underlay()
    demand = standard_demand()
    workload = StreamWorkload(np.random.default_rng(0),
                              max_streams_per_pair=8)
    now = 8 * 3600.0
    matrix = TrafficMatrix.from_model(demand, now)
    return u, workload.decompose(matrix), now


def test_path_control_paper_scale_snapshot(benchmark, paper_scale):
    """Step 1 alone on a prebuilt `LinkStateSnapshot` (the controller's
    epoch path): the paper's bound covers the full two-step
    computation, so this must be comfortably inside it."""
    u, streams, now = paper_scale
    config = ControlConfig()
    gateways = {c: 8 for c in u.codes}
    snap = u.snapshot(now)

    result = benchmark(lambda: path_control(streams, u.codes, snap, config,
                                            gateways=gateways,
                                            fees=u.pricing))
    assert benchmark.stats["mean"] < 2.0
    assert result.total_assigned_mbps() > 0


def _epoch_instants(t: float, epoch_s: float = 300.0):
    """`t`, an epoch later, `t` again, ...: a snapshot per control epoch
    finds most links' degradation timelines in another linear piece, so
    each round pays the timeline searches an epoch really costs (the
    same instant over and over would pay none)."""
    return itertools.cycle((t, t + epoch_s))


def test_underlay_snapshot_build(benchmark, paper_scale):
    """Cost of one vectorised whole-underlay snapshot (per control epoch)."""
    u, __, __ = paper_scale
    instants = _epoch_instants(8 * 3600.0)
    snap = benchmark(lambda: u.snapshot(next(instants)))
    assert np.isfinite(snap.lat).sum() > 0


def test_full_two_step_control_paper_scale(benchmark, paper_scale):
    """Link state, both steps and the reaction plans of one epoch."""
    u, streams, now = paper_scale
    config = ControlConfig()
    gateways = {c: 8 for c in u.codes}

    def two_step():
        snap = u.snapshot(now)
        r_cur = path_control(streams, u.codes, snap, config,
                             gateways=gateways, fees=u.pricing)
        decision = capacity_control(streams, u.codes, snap, config,
                                    gateways, r_cur, fees=u.pricing)
        plans = generate_reaction_plans(r_cur, snap)
        return r_cur, decision, plans

    r_cur, decision, plans = benchmark(two_step)
    # Paper: "the algorithm can finish in two seconds for our system".
    assert benchmark.stats["mean"] < 2.0
    assert plans


def test_path_control_double_scale(benchmark, paper_scale):
    """A 22-region what-if: the min-plus DP must stay sub-two-seconds."""
    base = default_regions()
    extra = [Region(r.name + " 2", r.code[:2] + "2", r.latitude + 3.0,
                    r.longitude - 5.0, r.utc_offset, r.continent)
             for r in base]
    from repro.traffic.demand import DemandModel
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.topology import build_underlay
    u = build_underlay(base + extra, UnderlayConfig(horizon_s=7200.0),
                       seed=2)
    demand = DemandModel(base + extra, seed=2)
    workload = StreamWorkload(np.random.default_rng(0),
                              max_streams_per_pair=2)
    now = 3600.0
    matrix = TrafficMatrix.from_model(demand, now)
    streams = workload.decompose(matrix)
    config = ControlConfig()
    gateways = {c: 8 for c in u.codes}
    benchmark(lambda: path_control(streams, u.codes, u.snapshot(now), config,
                                   gateways=gateways, fees=u.pricing))
    assert benchmark.stats["mean"] < 2.0


#: Budget of one all-pairs demand evaluation at 100 regions.  Evaluated
#: over the pair axis it takes ~5 ms; the per-pair loop it replaced
#: took 4-7 s, so the budget fails on any return to per-pair work.
DEMAND_MATRIX_BUDGET_S = 0.25


def test_demand_matrix_n100(benchmark):
    """One `TrafficMatrix.from_model` at planet scale (9 900 pairs):
    what every engine pays per control epoch for its demand snapshot."""
    from repro.underlay.planet import generate_regions
    regions = generate_regions(100, seed=7)
    demand = DemandModel(regions, seed=7)
    matrix = benchmark(lambda: TrafficMatrix.from_model(demand, 8 * 3600.0))
    assert len(matrix) == 100 * 99
    assert matrix.total() > 0
    assert benchmark.stats["mean"] < DEMAND_MATRIX_BUDGET_S


#: region count -> hard budget of one epoch of the demand path.  As
#: columns (a matrix is a pairs tuple and a values vector, the SIB's
#: histories are arrays, the cohort decomposition one array pass) it
#: takes ~8 ms at 100 regions; with a dict matrix sorted per epoch and
#: one predictor object per pair it took ~31 ms.  The budget leaves
#: room for a host twice as slow and fails on a return to per-pair
#: Python work.
DEMAND_EPOCH_BUDGET_S = {100: 0.02}


@pytest.mark.parametrize("n_regions", sorted(DEMAND_EPOCH_BUDGET_S),
                         ids=lambda n: f"n{n:03d}")
def test_demand_epoch(benchmark, n_regions):
    """One control epoch's demand path before Algorithm 1: sample the
    demand model, record it in the SIB, predict the next epoch and
    decompose the prediction into cohorts — what `Controller.run_epoch`
    pays ahead of path control.  One SIB lives through the rounds, as
    in a deployment (warmed with eight epochs; never fitted: the
    Fourier fits are per pair by design)."""
    from repro.controlplane.sib import StreamInformationBase
    from repro.underlay.planet import generate_regions
    regions = generate_regions(n_regions, seed=7)
    demand = DemandModel(regions, seed=7)
    sib = StreamInformationBase([r.code for r in regions])
    workload = CohortWorkload(seed=7)
    instants = itertools.count(8 * 3600.0, 300.0)

    def epoch():
        sib.record_epoch(TrafficMatrix.from_model(demand, next(instants)))
        return workload.decompose(sib.predicted_matrix())

    for __ in range(8):
        epoch()
    cohorts = benchmark.pedantic(epoch, rounds=40, warmup_rounds=2)
    assert len(cohorts) == 2 * n_regions * (n_regions - 1)
    assert benchmark.stats["mean"] < DEMAND_EPOCH_BUDGET_S[n_regions]


# --------------------------------------------------------------------------
# One probing instant of the event engine (§4.1)
# --------------------------------------------------------------------------
#
# Every 0.4 s of simulated time the event engine reads the underlay's
# state and the bursts' draws out of a block of instants, the monitoring
# block runs one group-probing pass over every region's gateways, and
# its reports go to the NIB as one batch.  That
# instant is the engine's whole cost (docs/performance.md, "The
# monitoring block"), so it is the number that says how far event-engine
# studies scale.

#: Hard budgets per probing instant.  One Python object per link took
#: a third of real time at 50 regions (126-156 ms), array state with
#: scalar per-burst draws ~26 ms; with one hashed block per instant, one
#: array pass per cluster took ~0.9 / ~5 / ~15 ms at 11 / 50 / 100
#: regions, one pass over every region's rows ~0.4 / ~2 / ~8, and with
#: slabs and a NIB that folds on read it takes ~0.13 / ~1.2 / ~4-5
#: (~0.1 at 3 regions, from ~0.2).  The 3-region point is
#: `serve_chaos_n3`'s deployment (four gateways a region, so two
#: members adopt the group state): 12 links, so its instant is fixed
#: per-call cost, not element work.
#: The budgets leave room for a host twice as slow: they catch a return
#: to per-link work, `tests/core/test_probe_call_budget.py` one to a
#: pass per cluster.
PROBE_INSTANT_BUDGET_S = {3: 0.001, 11: 0.005, 50: 0.025, 100: 0.05}
_PROBE_START_S = 600.0
#: The controller's epoch in instants (30 s): the NIB is read once per
#: this many, so the mean carries the fold of the batches queued in
#: between.
_PROBE_READ_EVERY = 75


@pytest.mark.parametrize("n_regions", sorted(PROBE_INSTANT_BUDGET_S),
                         ids=lambda n: f"n{n:03d}")
def test_probe_instant(benchmark, n_regions):
    """The monitoring block's probing pass over every region + the NIB's
    `update_many`, at the next 0.4 s step each round, and the
    controller's `latest_snapshot` every `_PROBE_READ_EVERY` rounds.
    `now` advances by repeated addition, as `PeriodicTask` steps, so the
    rounds read rows of the probe reader's blocks: the mean carries a
    block's evaluation spread over its instants."""
    from repro.controlplane.nib import NetworkInformationBase
    from repro.dataplane.cluster import (MonitoringBlock, RegionCluster,
                                         probe_noise)
    from repro.dataplane.config import MonitoringConfig
    from repro.sim.rng import RngStreams
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.topology import build_underlay

    if n_regions == 3:
        u = build_underlay(default_regions()[:3],
                           UnderlayConfig(horizon_s=7200.0), seed=7)
        gateways = 4
    else:
        u = planet_underlay(n_regions, seed=7, horizon_s=7200.0)
        gateways = 2
    noise = probe_noise(u, MonitoringConfig(), RngStreams(7))
    block = MonitoringBlock([RegionCluster(code, u, noise=noise,
                                           initial_gateways=gateways)
                             for code in u.codes])
    nib = NetworkInformationBase(codes=u.codes)
    steps = itertools.count()
    clock = [_PROBE_START_S]

    def instant():
        now = clock[0]
        clock[0] = now + 0.4
        nib.update_many(block.probe(now)[0])
        if next(steps) % _PROBE_READ_EVERY == _PROBE_READ_EVERY - 1:
            nib.latest_snapshot(u.codes)
        return now

    instant()  # first-sample paths, timeline search
    now = benchmark(instant)
    assert now < u.config.horizon_s
    assert len(nib) == 2 * n_regions * (n_regions - 1)
    assert nib.version == len(nib) * (next(steps))
    assert benchmark.stats["mean"] < PROBE_INSTANT_BUDGET_S[n_regions]


# --------------------------------------------------------------------------
# One region's install, and the fleet changing under it (§4.2, §5)
# --------------------------------------------------------------------------
#
# The controller pushes one forwarding table and one set of reaction
# plans per region, and a region holds one copy of them
# (`RegionCluster.table`) however many gateways forward from it: an
# install is one guarded replace, and a gateway that joins copies
# nothing.

#: Hard budget for one install plus a 4 -> 8 -> 4 scale.  With a table
#: per gateway (each install rebuilt per gateway, each new gateway
#: cloned from a sibling) the same work took 14-23 ms on the reference
#: box; with one per region, ~0.5 ms.
CLUSTER_INSTALL_BUDGET_S = {11: 0.006}
_INSTALL_ROWS = 2000


@pytest.mark.parametrize("n_regions", sorted(CLUSTER_INSTALL_BUDGET_S),
                         ids=lambda n: f"n{n:03d}")
def test_cluster_install(benchmark, n_regions):
    """A 2 000-row table with plans into a four-gateway cluster under a
    fresh version, then the fleet scales 4 -> 8 -> 4."""
    from repro.dataplane.cluster import RegionCluster
    from repro.underlay.linkstate import LinkType

    u = planet_underlay(n_regions, seed=7, horizon_s=7200.0)
    region, others = u.codes[0], u.codes[1:]
    cluster = RegionCluster(region, u, initial_gateways=4)
    tiers = (LinkType.INTERNET, LinkType.PREMIUM)
    entries = {sid: (others[sid % len(others)], tiers[sid % 2])
               for sid in range(_INSTALL_ROWS)}
    plans = {sid: (others[(sid + 1) % len(others)],)
             for sid in range(_INSTALL_ROWS)}
    versions = itertools.count(1)

    def install_and_scale():
        cluster.install(entries, plans, version=next(versions), now=0.0)
        cluster.scale_to(8)
        newest = cluster.gateways[max(cluster.gateways)]
        cluster.scale_to(4)
        return newest

    newest = benchmark(install_and_scale)
    last = _INSTALL_ROWS - 1
    assert cluster.size == 4
    assert cluster.current_entries() == entries
    assert newest.forward(last).next_hop == entries[last][0]
    assert benchmark.stats["mean"] < CLUSTER_INSTALL_BUDGET_S[n_regions]


# --------------------------------------------------------------------------
# One block of link series of the grid engine (§4.1's 400 ms probing)
# --------------------------------------------------------------------------
#
# Per five-minute epoch the grid engine asks `Underlay.link_series` for
# every on-path link on the 0.4 s burst grid (750 instants; with the
# 5 s eval grid merged in, 809): the largest single span of an
# `epoch_n11` run (docs/performance.md, "One link table").  At paper scale
# an epoch's ~91 hops are one block; at 100 regions the thousands of
# hops are cut into blocks of `_BLOCK_ELEMENTS` (hops x instants)
# elements — 162 hops on the merged grid — and one such block is the
# unit of cost.

#: region count -> (hops in the block, hard budget per block).  The
#: per-hop, per-instant evaluation this replaced took 11.5-18.5 ms at
#: paper scale and 25-32 ms at 100 regions (174 hops on the burst grid)
#: as the reference box's speed drifted; jitter per link-second,
#: diurnal per source region and one timeline pass per block take 6-7
#: and 12.5-15.
LINK_SERIES_BLOCK = {11: (91, 0.010), 100: (162, 0.020)}
#: region count -> one epoch's instants, from its start: the burst grid
#: at paper scale, the merged grid of the epoch at 600 s at 100 regions.
_BLOCK_GRID = {
    11: np.arange(750) * 0.4,
    100: np.union1d(np.arange(600.0, 900.0, 0.4),
                    np.arange(600.0, 900.0, 5.0)) - 600.0}


@pytest.mark.parametrize("n_regions", sorted(LINK_SERIES_BLOCK),
                         ids=lambda n: f"n{n:03d}")
def test_link_series_block(benchmark, n_regions):
    """`Underlay.link_series` of one block of hops over one epoch's
    burst grid, a fresh epoch each round (so every timeline is searched
    again, as in a run)."""
    from repro.core.simulator import _BLOCK_ELEMENTS
    from repro.underlay.linkstate import LinkType

    n_hops, budget_s = LINK_SERIES_BLOCK[n_regions]
    grid = _BLOCK_GRID[n_regions]
    assert n_hops <= _BLOCK_ELEMENTS // grid.size
    u = planet_underlay(n_regions, seed=7, horizon_s=7200.0)
    every = [(a, b, lt) for (a, b) in u.pairs
             for lt in (LinkType.INTERNET, LinkType.PREMIUM)]
    picked = np.random.default_rng(7).choice(len(every), n_hops,
                                             replace=False)
    hops = [every[k] for k in picked]
    epochs = itertools.cycle(range(2, 22))

    def block():
        return u.link_series(hops, 300.0 * next(epochs) + grid)

    block()  # first-call paths
    lat, loss = benchmark(block)
    assert lat.shape == loss.shape == (n_hops, grid.size)
    assert np.all(lat > 0.0) and np.all((loss >= 0.0) & (loss <= 1.0))
    assert benchmark.stats["mean"] < budget_s


# --------------------------------------------------------------------------
# One epoch of the grid engine (§6's figures)
# --------------------------------------------------------------------------
#
# Every paper figure is computed by `EpochSimulator`: per five-minute
# epoch the demand snapshot, the monitoring push, the controller, one
# link-series pass per block of on-path hops over the eval and burst
# grids at once, the detour hops, and one effective-path pass over every
# pair (docs/performance.md, "Grid engine").  One epoch of full XRON on
# the paper world is the unit of cost of the `epoch_n11` workload.

#: region count -> hard budget per epoch.  The paper world's epochs
#: from 01:00 UTC took a median 47 ms on the reference box with a
#: reaction evaluation per pair and each path hop's link truth read
#: twice, and take 41 ms with one fill and one pass (ten means each,
#: spread about +-8 ms; the controller is about half of an epoch).  The
#: budget leaves room for a host twice as slow.
GRID_EPOCH_BUDGET_S = {11: 0.1}


@pytest.mark.parametrize("n_regions", sorted(GRID_EPOCH_BUDGET_S),
                         ids=lambda n: f"n{n:03d}")
@pytest.mark.benchmark(min_rounds=30)
def test_grid_epoch(benchmark, n_regions):
    """`EpochSimulator.run` over one epoch of `xron()` on the paper
    world (`standard_underlay`, `standard_demand`), the next epoch each
    round (so every timeline is searched again, as in a run)."""
    from repro.core.config import SimulationConfig
    from repro.core.simulator import EpochSimulator
    from repro.core.variants import xron

    u = standard_underlay()
    simulator = EpochSimulator(u, standard_demand(), xron(),
                               SimulationConfig(seed=7))
    epoch_s, step_s = (simulator.sim_config.epoch_s,
                       simulator.sim_config.eval_step_s)
    starts = (k * epoch_s for k in itertools.count(12))

    def epoch():
        return simulator.run(next(starts), epoch_s)

    epoch()  # first-call paths, the container pools
    with simulator:
        result = benchmark(epoch)
    assert len(u.codes) == n_regions
    assert result.latency_ms.shape == (n_regions * (n_regions - 1),
                                       round(epoch_s / step_s))
    assert result.epoch_starts[0] + epoch_s <= u.table.horizon_s
    assert benchmark.stats["mean"] < GRID_EPOCH_BUDGET_S[n_regions]


#: region count -> hard budget of one epoch's detector pass.  Over the
#: paper world's path hops x 750 bursts it takes a mean 2.5 ms on the
#: reference box with the loss EWMA as a numpy scan (1.8 ms with the
#: `scipy.signal.lfilter` call the scan replaced); the budget leaves
#: room for a host twice as slow.
DETECTOR_PASS_BUDGET_S = {11: 0.005}


@pytest.mark.parametrize("n_regions", sorted(DETECTOR_PASS_BUDGET_S),
                         ids=lambda n: f"n{n:03d}")
def test_detector_pass(benchmark, monkeypatch, n_regions):
    """`reaction_active_series` over the burst series of one grid epoch
    of `xron()` on the paper world: the block `_EpochLinkCache.fill`
    detects, captured from a run."""
    from repro.core import simulator as grid
    from repro.core.config import SimulationConfig
    from repro.core.variants import xron
    from repro.dataplane.estimator import reaction_active_series

    blocks = []

    def capture(lat, loss, reaction, monitoring):
        blocks.append((lat, loss, reaction, monitoring))
        return reaction_active_series(lat, loss, reaction, monitoring)

    monkeypatch.setattr(grid, "reaction_active_series", capture)
    u = standard_underlay()
    with grid.EpochSimulator(u, standard_demand(), xron(),
                             SimulationConfig(seed=7)) as simulator:
        simulator.run(12 * simulator.sim_config.epoch_s,
                      simulator.sim_config.epoch_s)
    (lat, loss, reaction, monitoring), = blocks

    flags = benchmark(reaction_active_series, lat, loss, reaction,
                      monitoring)
    assert len(u.codes) == n_regions
    assert flags.shape == lat.shape and lat.shape[1] == 750
    assert lat.shape[0] > 80
    assert benchmark.stats["mean"] < DETECTOR_PASS_BUDGET_S[n_regions]


# --------------------------------------------------------------------------
# Region-count scaling sweep (generated planet topologies + stream cohorts)
# --------------------------------------------------------------------------
#
# Each sweep point builds an N-region topology with
# `repro.underlay.planet.build_planet_underlay` and a cohort workload
# (two cohorts per ordered pair), then times the controller's per-epoch
# stages.  The paper's two-second bound is asserted as a *hard budget*
# for every point at or below `BUDGET_MAX_REGIONS`; larger points run
# unasserted to chart the frontier.  See docs/performance.md, "Scaling
# past eleven regions" and "The CI gate", for the methodology and how
# to refresh BENCH_control.json.
#
# CI runs a subset (`-k "sweep and (n011 or n100 or n200)"`); ids are
# zero-padded so `-k n100` cannot also match n1000-style points later.

SWEEP_REGIONS = (11, 50, 100, 200)
#: Hard two-step budget (paper §5.3: "finish in two seconds").
EPOCH_BUDGET_S = 2.0
#: Sweep points where the budget is asserted, not just recorded.
BUDGET_MAX_REGIONS = 100
#: Shared scenario constants: one seed for topology/demand/cohorts, a
#: short generated-timeline horizon (one epoch is measured, not days),
#: and a peak-hour demand instant for the matrix.
_SWEEP_SEED = 7
_SWEEP_HORIZON_S = 900.0
_SWEEP_SNAP_T = 450.0
_SWEEP_DEMAND_T = 8 * 3600.0

# Module-level cache, NOT a pytest fixture: `-k sweep` selections must
# run standalone without touching the paper-scale fixtures, and the
# per-N setup (a multi-second underlay build at N=200) must not be
# re-done per benchmark round.
_sweep_cache = {}


def _sweep_scenario(n_regions: int):
    """(underlay, its streams, gateways, the demand matrix, the cohort
    workload that decomposed it) at N regions."""
    if n_regions not in _sweep_cache:
        u = planet_underlay(n_regions, seed=_SWEEP_SEED,
                            horizon_s=_SWEEP_HORIZON_S)
        demand = DemandModel(u.regions, seed=_SWEEP_SEED)
        matrix = TrafficMatrix.from_model(demand, _SWEEP_DEMAND_T)
        workload = CohortWorkload(seed=_SWEEP_SEED, cohorts_per_pair=2)
        streams = workload.decompose(matrix)
        gateways = {c: 8 for c in u.codes}
        _sweep_cache[n_regions] = (u, streams, gateways, matrix, workload)
    return _sweep_cache[n_regions]


def _sweep_id(n: int) -> str:
    return f"n{n:03d}"


#: The horizon of `test_sweep_underlay_build`: an hour of degradation
#: timelines, the horizon an hour-long event-engine study builds.
_BUILD_HORIZON_S = 3600.0


@pytest.mark.parametrize("n_regions", (100,), ids=_sweep_id)
@pytest.mark.benchmark(min_rounds=3)
def test_sweep_underlay_build(benchmark, n_regions):
    """`planet_underlay(N)` with a one-hour horizon: every directed
    link's draws — 19 800 links at 100 regions, each from its own
    stream — then every stream seeded, every timeline compiled and the
    link table written in one pass each."""
    u = benchmark(lambda: planet_underlay(n_regions, seed=_SWEEP_SEED,
                                          horizon_s=_BUILD_HORIZON_S))
    assert len(u.codes) == n_regions
    assert u.table.horizon_s == _BUILD_HORIZON_S


@pytest.mark.parametrize("n_regions", (11,), ids=_sweep_id)
@pytest.mark.benchmark(min_rounds=5)
def test_underlay_build_paper(benchmark, n_regions):
    """`standard_underlay()` = `build_underlay(seed=1)`: the paper's
    eleven regions over the default two-day horizon, the underlay every
    paper figure builds.  Its 220 timelines hold about a thousand events
    each and few share a count, so the batched compile works in blocks
    of one or two timelines here (not named ``sweep``: perf-smoke runs
    it)."""
    u = benchmark(standard_underlay)
    assert len(u.codes) == n_regions
    assert u.table.horizon_s == 2 * 86400.0


@pytest.mark.parametrize("n_regions", (100,), ids=_sweep_id)
@pytest.mark.benchmark(min_rounds=3)
def test_sweep_demand_build(benchmark, n_regions):
    """`DemandModel` over N generated regions: one named stream, one
    lognormal draw and one noise seed per ordered pair (9 900 at 100
    regions), then the surge slots hashed as matrices."""
    from repro.underlay.planet import generate_regions
    regions = generate_regions(n_regions,
                               seed=_SWEEP_SEED)
    demand = benchmark(lambda: DemandModel(regions, seed=_SWEEP_SEED))
    assert len(demand.pairs) == n_regions * (n_regions - 1)


@pytest.mark.parametrize("n_regions", SWEEP_REGIONS, ids=_sweep_id)
@pytest.mark.benchmark(min_rounds=3)
def test_sweep_snapshot_build(benchmark, n_regions):
    """Per-epoch whole-underlay snapshot cost at N regions."""
    u = _sweep_scenario(n_regions)[0]
    instants = _epoch_instants(_SWEEP_SNAP_T)
    snap = benchmark(lambda: u.snapshot(next(instants)))
    assert np.isfinite(snap.lat).sum() > 0


@pytest.mark.parametrize("n_regions", SWEEP_REGIONS, ids=_sweep_id)
@pytest.mark.benchmark(min_rounds=3)
def test_sweep_path_control(benchmark, n_regions):
    """Algorithm 1 over the cohort SIB at N regions."""
    u, streams, gateways = _sweep_scenario(n_regions)[:3]
    config = ControlConfig()
    snap = u.snapshot(_SWEEP_SNAP_T)
    result = benchmark(lambda: path_control(streams, u.codes, snap, config,
                                            gateways=gateways,
                                            fees=u.pricing))
    assert result.total_assigned_mbps() > 0
    if n_regions <= BUDGET_MAX_REGIONS:
        assert benchmark.stats["mean"] < EPOCH_BUDGET_S


#: Hard budget of one Algorithm 2 pass over the capacitated result of
#: the sweep scenario.  Scoring the distinct routes of each hop count
#: in one array pass and writing the per-region plan dicts takes
#: 5.5-6.2 ms at 100 regions (7.7-8.3 ms before the placements' routes
#: were column arrays); the per-route scalar walk it replaced took
#: 82-105 ms, and scoring an `OverlayPath` per candidate more still.
#: The budget leaves 5x headroom.
REACTION_PLANS_BUDGET_S = {100: 0.04}


@pytest.mark.parametrize("n_regions", sorted(REACTION_PLANS_BUDGET_S),
                         ids=_sweep_id)
def test_reaction_plans(benchmark, n_regions):
    """One `generate_reaction_plans` over the capacitated result of the
    sweep scenario (not named ``sweep``: perf-smoke runs it)."""
    u, streams, gateways = _sweep_scenario(n_regions)[:3]
    config = ControlConfig()
    snap = u.snapshot(_SWEEP_SNAP_T)
    r_cur = path_control(streams, u.codes, snap, config, gateways=gateways,
                         fees=u.pricing)
    plans = benchmark(lambda: generate_reaction_plans(r_cur, snap))
    assert sum(len(by_stream) for by_stream in plans.values()) \
        >= len(set(r_cur.position))
    assert benchmark.stats["mean"] < REACTION_PLANS_BUDGET_S[n_regions]


#: Epochs `test_sweep_epoch_phase_profile` times.  Time the host takes
#: the process off the CPU inside an epoch's clock and outside its
#: phases moved one epoch's coverage below the bound once in five runs,
#: so the bound is on the median epoch.
_PROFILED_EPOCHS = 5


@pytest.mark.parametrize("n_regions", (100,), ids=_sweep_id)
def test_sweep_epoch_phase_profile(n_regions, tmp_path, capsys):
    """The phase profiler must account for the full epoch: the sum of
    the ``algo_step`` phases has to land within 5% of the
    measured epoch wall time on the n100 sweep scenario, both against
    the controller's own ``control_epoch`` clock and against an
    external `perf_counter` measurement around `run_epoch`, in the
    median of `_PROFILED_EPOCHS` epochs.  Also round-trips the trace
    through `repro obs profile`."""
    import time

    from repro import obs
    from repro.cli import main as cli_main
    from repro.controlplane.controller import Controller
    from repro.controlplane.nib import LinkReport
    from repro.obs.export import write_jsonl
    from repro.obs.profile import profile_events
    from repro.underlay.linkstate import LinkType
    from repro.underlay.snapshot import TYPE_INDEX

    u, __, gateways = _sweep_scenario(n_regions)[:3]
    matrix = TrafficMatrix.from_model(DemandModel(u.regions,
                                                  seed=_SWEEP_SEED),
                                      _SWEEP_DEMAND_T)
    controller = Controller(u.codes, ControlConfig(), pricing=u.pricing,
                            workload=CohortWorkload(seed=_SWEEP_SEED,
                                                    cohorts_per_pair=2),
                            seed=_SWEEP_SEED)
    # Feed the NIB noise-free true link states (the data plane's job in
    # a full simulation) so run_epoch sees a fully populated topology.
    snap = u.snapshot(_SWEEP_SNAP_T)
    index = snap.index
    reports = []
    for lt in (LinkType.INTERNET, LinkType.PREMIUM):
        lat_m = snap.lat[TYPE_INDEX[lt]]
        loss_m = snap.loss[TYPE_INDEX[lt]]
        for a in u.codes:
            for b in u.codes:
                lat = float(lat_m[index[a], index[b]])
                if a == b or not np.isfinite(lat):
                    continue
                reports.append(LinkReport(
                    a, b, lt, lat, float(loss_m[index[a], index[b]]),
                    _SWEEP_SNAP_T))
    controller.nib.update_many(reports)

    profiles, walls = [], []
    for __ in range(_PROFILED_EPOCHS):
        with obs.capture() as hub:
            t0 = time.perf_counter()
            controller.run_epoch(_SWEEP_SNAP_T, matrix, gateways)
            wall_ms = (time.perf_counter() - t0) * 1e3
            events = hub.events_json()
            metrics = hub.metrics.snapshot()
        profile = profile_events(events)
        assert profile.epochs == 1
        # The phases nest inside both clocks, whatever the host does.
        assert profile.phase_total_ms <= wall_ms
        assert profile.coverage <= 1.0 + 1e-9
        profiles.append(profile)
        walls.append(wall_ms)
    steps = {p.step for p in profile.phases}
    assert {"predict", "link_snapshot", "algo1.path_control",
            "capacity_control", "algo2.reaction_plans"} <= steps
    # Coverage: the median epoch's phase sum within 5% of both wall
    # clocks.
    assert np.median([p.phase_total_ms / wall
                      for p, wall in zip(profiles, walls)]) >= 0.95
    assert np.median([p.coverage for p in profiles]) >= 0.95
    # Demand-weighted pair attribution sums to the algo1 phase total.
    algo1 = next(p for p in profile.phases
                 if p.step == "algo1.path_control")
    if profile.pair_share_ms:
        assert sum(profile.pair_share_ms.values()) == pytest.approx(
            algo1.total_ms, rel=1e-6)
    # CLI round trip: `repro obs profile` renders the same folding.
    trace = tmp_path / "epoch.jsonl"
    write_jsonl(trace, events, metrics=metrics)
    assert cli_main(["obs", "profile", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "algo1.path_control" in out and "(all phases)" in out


@pytest.mark.parametrize("n_regions", SWEEP_REGIONS, ids=_sweep_id)
@pytest.mark.benchmark(min_rounds=3)
def test_sweep_full_epoch(benchmark, n_regions):
    """The controller's full per-epoch compute at N regions: snapshot
    build, the decomposition of the demand matrix into cohorts,
    Algorithm 1, capacity control, and reaction-plan generation.  The
    SIB's demand prediction is left out (`test_sweep_epoch_phase_profile`
    times a whole `Controller.run_epoch`)."""
    u, __, gateways, matrix, workload = _sweep_scenario(n_regions)
    config = ControlConfig()

    def full_epoch():
        streams = workload.decompose(matrix)
        snap = u.snapshot(_SWEEP_SNAP_T)
        r_cur = path_control(streams, u.codes, snap, config,
                             gateways=gateways, fees=u.pricing)
        decision = capacity_control(streams, u.codes, snap, config,
                                    gateways, r_cur, fees=u.pricing)
        plans = generate_reaction_plans(r_cur, snap)
        return r_cur, decision, plans

    r_cur, decision, plans = benchmark(full_epoch)
    assert plans
    assert r_cur.total_assigned_mbps() > 0
    if n_regions <= BUDGET_MAX_REGIONS:
        # Paper: "the algorithm can finish in two seconds for our
        # system" — enforced, not aspirational, up to 100 regions.
        assert benchmark.stats["mean"] < EPOCH_BUDGET_S
