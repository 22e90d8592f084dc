"""The epoch-driven system simulator.

`EpochSimulator` replays a time window against one system variant:

1. every control epoch (five minutes), gateway monitoring reports
   group-aggregated link states to the NIB, the SIB ingests the measured
   demand, and the controller computes forwarding paths, reaction plans
   and capacity targets (skipped for the direct-path baseline variants);
2. capacity targets are applied to per-region container pools, whose
   additions become ready only after realistic provisioning delays;
3. within the epoch, each region pair's representative path is evaluated
   on a fine grid: burst-level degradation detection drives the fast
   reaction (when the variant has it), producing the *effective*
   latency/loss the application saw;
4. everything is recorded: per-pair effective series, demand, container
   counts, hop counts, and billed volumes per tier.

The recorded `SimulationResult` is what every §6 experiment consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.stats import weighted_percentiles
from repro.controlplane.controller import Controller, ControlOutput
from repro.controlplane.model import ControlConfig, OverlayPath, PathHop
from repro.core.config import (SimulationConfig, build_controller,
                               build_pools)
from repro.core.variants import VariantSpec
from repro.cost.accounting import PairCostLedger
from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.estimator import reaction_active_series
from repro.dataplane.forwarding import (effective_path_series,
                                        path_detours)
from repro.dataplane.grouping import ProbingGroupManager
from repro.dataplane.probing import burst_series, link_seed
from repro.obs import telemetry as _telemetry
from repro.qoe.metrics import QoESummary
from repro.sim.rng import RngStreams
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import RegionPair
from repro.underlay.snapshot import TYPE_ORDER
from repro.underlay.topology import Underlay

_TEL = _telemetry()


#: Upper bound on the elements of one (hops x instants) block the link
#: cache evaluates: an n11 epoch's ~91 hops fit one block even on the
#: union of the 5 s eval and 0.4 s burst grids, while n100's thousands
#: of hops are cut into blocks whose temporaries stay near a megabyte
#: each.
_BLOCK_ELEMENTS = 1 << 17
#: Tables 2 and 3's columns: the percentiles a variant's latency and
#: loss rows report.
TABLE_PERCENTILES = (50.0, 95.0, 99.0, 99.9)


class _EpochLinkCache:
    """Per-epoch, per-hop link series and reaction flags, computed once.

    The simulator fills it a list of hops at a time (`fill`), every hop
    before it asks for it.
    """

    def __init__(self, underlay: Underlay, t0: float, t1: float,
                 eval_step_s: float, monitoring: MonitoringConfig,
                 reaction: ReactionConfig,
                 probe_seed: Callable[[PathHop], int]):
        self.underlay = underlay
        self.t0, self.t1 = t0, t1
        self.times = np.arange(t0, t1, eval_step_s)
        self.monitoring = monitoring
        self.reaction_config = reaction
        #: hop -> seed of its probing hash-noise stream.
        self.probe_seed = probe_seed
        self._series: Dict[PathHop, Tuple[np.ndarray, np.ndarray]] = {}
        self._reaction: Dict[PathHop, np.ndarray] = {}
        # `burst_series`' grid, as it builds it.
        bursts = np.arange(t0, t1, monitoring.burst_interval_s)
        #: Every instant a probed hop is evaluated at: both grids.
        self._grid = np.union1d(bursts, self.times)
        #: The burst whose flag each eval instant takes (the last one at
        #: or before it).
        self._burst_of = np.clip(
            np.searchsorted(bursts, self.times, side="right") - 1,
            0, bursts.size - 1)

    def series(self, hop: PathHop) -> Tuple[np.ndarray, np.ndarray]:
        """A filled hop's (latency, loss) on the eval grid."""
        return self._series[hop]

    def reaction(self, hop: PathHop) -> np.ndarray:
        """Burst-level degradation detection, resampled to the eval grid."""
        return self._reaction[hop]

    def fill(self, hops: Iterable[PathHop], probe: bool = True) -> None:
        """Evaluate every hop not cached yet, a block at a time: its
        (latency, loss) series on the eval grid and, with `probe`, its
        bursts and the degradation flags they raise — both read from one
        `link_series` call over the union of the two grids."""
        done = self._reaction if probe else self._series
        new = [hop for hop in dict.fromkeys(hops) if hop not in done]
        grid = self._grid if probe else self.times
        step = max(1, _BLOCK_ELEMENTS // grid.size)
        for block in (new[lo:lo + step] for lo in range(0, len(new), step)):
            on_grid = partial(_columns, grid,
                              self.underlay.link_series(block, grid))
            self._series.update(zip(block, zip(*on_grid(self.times))))
            if not probe:
                continue
            seeds = np.array([self.probe_seed(hop) for hop in block],
                             dtype=np.uint64)[:, None]
            __, blat, bloss = burst_series(on_grid, self.t0, self.t1,
                                           self.monitoring, seeds)
            flags = reaction_active_series(blat, bloss, self.reaction_config,
                                           self.monitoring)
            self._reaction.update(zip(block, flags[:, self._burst_of]))


def _columns(grid: np.ndarray, series: Tuple[np.ndarray, np.ndarray],
             times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The columns of a block's (latency, loss) over `grid` at `times`,
    instants of that grid."""
    cols = np.searchsorted(grid, times)
    return series[0][:, cols], series[1][:, cols]


@dataclass
class SimulationResult:
    """Everything one simulated window produced for one variant."""

    variant: VariantSpec
    pairs: List[RegionPair]
    region_codes: List[str]
    eval_step_s: float
    epoch_s: float
    times: np.ndarray              #: (T,) evaluation instants
    latency_ms: np.ndarray         #: (P, T) effective path latency
    loss_rate: np.ndarray          #: (P, T) effective path loss
    on_backup: np.ndarray          #: (P, T) riding a reaction path
    epoch_starts: np.ndarray       #: (E,)
    demand_mbps: np.ndarray        #: (P, E)
    containers: np.ndarray         #: (R, E) ready gateways per region
    ledger: PairCostLedger
    #: (hop count, Mbps) samples for normal paths, per epoch (Fig. 17a).
    normal_hop_samples: List[Tuple[int, float]] = field(default_factory=list)
    #: Same for reaction (backup) paths, weighted by reacted traffic.
    reaction_hop_samples: List[Tuple[int, float]] = field(default_factory=list)
    #: Billed volume per epoch per tier, GB (Fig. 17b).
    internet_gb_per_epoch: np.ndarray = field(
        default_factory=lambda: np.zeros(0))
    premium_gb_per_epoch: np.ndarray = field(
        default_factory=lambda: np.zeros(0))
    #: Fraction of pairs whose representative path changed, per epoch
    #: (route churn; epoch 0 is 0 by definition).
    path_change_fraction: np.ndarray = field(
        default_factory=lambda: np.zeros(0))

    # ------------------------------------------------------------------ api
    def pair_index(self, src: str, dst: str) -> int:
        return self.pairs.index((src, dst))

    def sample_weights(self) -> np.ndarray:
        """(P, T) per-sample demand weights (pair demand of the epoch)."""
        steps_per_epoch = int(round(self.epoch_s / self.eval_step_s))
        reps = np.repeat(self.demand_mbps, steps_per_epoch, axis=1)
        return reps[:, :self.times.size]

    def pooled(self, weighted: bool = True
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened (latency, loss, weights) over all pairs and times."""
        lat = self.latency_ms.ravel()
        loss = self.loss_rate.ravel()
        w = (self.sample_weights().ravel() if weighted
             else np.ones_like(lat))
        return lat, loss, w

    def latency_percentiles(self, percentiles=TABLE_PERCENTILES,
                            weighted: bool = True) -> Dict[str, float]:
        """Table 2's row for this variant."""
        lat, __, w = self.pooled(weighted)
        row = {"average": float(np.average(lat, weights=w))}
        vals = weighted_percentiles(lat, w, percentiles)
        for p, v in zip(percentiles, vals):
            row[f"{p:g}%"] = float(v)
        return row

    def loss_percentiles(self, weighted: bool = True) -> Dict[str, float]:
        """Table 3's row for this variant (loss in percent)."""
        __, loss, w = self.pooled(weighted)
        loss_pct = loss * 100.0
        row = {"average": float(np.average(loss_pct, weights=w))}
        vals = weighted_percentiles(loss_pct, w, TABLE_PERCENTILES)
        for p, v in zip(TABLE_PERCENTILES, vals):
            row[f"{p:g}%"] = float(v)
        return row

    def qoe_summary(self) -> QoESummary:
        """QoE over the whole window, demand-weight-pooled across pairs."""
        return self._qoe_for_slice(slice(0, self.times.size),
                                   self.sample_weights())

    def qoe_per_day(self) -> List[QoESummary]:
        steps_per_day = int(round(86400.0 / self.eval_step_s))
        weights = self.sample_weights()
        return [self._qoe_for_slice(
                    slice(d0, min(d0 + steps_per_day, self.times.size)),
                    weights)
                for d0 in range(0, self.times.size, steps_per_day)]

    def backup_fraction(self) -> float:
        """Demand-weighted fraction of traffic-time on reaction paths."""
        w = self.sample_weights()
        total = w.sum()
        if total <= 0:
            return float(self.on_backup.mean())
        return float((self.on_backup * w).sum() / total)

    def premium_traffic_share(self) -> float:
        return self.ledger.premium_traffic_share()

    def mean_route_churn(self) -> float:
        """Mean per-epoch fraction of pairs that changed paths."""
        if self.path_change_fraction.size <= 1:
            return 0.0
        return float(self.path_change_fraction[1:].mean())

    # -------------------------------------------------------------- internal
    def _qoe_for_slice(self, sl: slice, weights: np.ndarray) -> QoESummary:
        from repro.qoe.video import stall_series, \
            stall_duration_buckets, frame_rate_series
        from repro.qoe.audio import audio_fluency_series

        lat = self.latency_ms[:, sl]
        loss = self.loss_rate[:, sl]
        w = weights[:, sl]
        wsum = w.sum()
        if wsum <= 0:
            w = np.ones_like(w)
            wsum = w.sum()
        stalled = stall_series(lat, loss)
        fps = frame_rate_series(lat, loss)
        fluency = audio_fluency_series(lat, loss)
        score_floor = np.clip(np.floor(fluency).astype(int), 1, 5)
        buckets = (0, 0, 0)
        for p in range(lat.shape[0]):
            b = stall_duration_buckets(stalled[p], self.eval_step_s)
            buckets = tuple(x + y for x, y in zip(buckets, b))
        return QoESummary(
            stall_ratio=float((stalled * w).sum() / wsum),
            mean_fps=float((fps * w).sum() / wsum),
            mean_fluency=float((fluency * w).sum() / wsum),
            bad_audio_fraction=float(((score_floor == 1) * w).sum() / wsum),
            low_audio_fraction=float(((score_floor <= 2) * w).sum() / wsum),
            stall_buckets=buckets,  # type: ignore[arg-type]
            samples=int(lat.size))


class EpochSimulator:
    """Replays a window for one variant; see the module docstring."""

    def __init__(self, underlay: Underlay, demand: DemandModel,
                 variant: VariantSpec,
                 sim_config: Optional[SimulationConfig] = None):
        self.underlay = underlay
        self.demand = demand
        self.variant = variant
        self.sim_config = (sim_config if sim_config is not None
                           else SimulationConfig())
        self.control_config = ControlConfig()
        steps = self.sim_config.epoch_s / self.sim_config.eval_step_s
        if not math.isclose(steps, round(steps)):  # grids restart per epoch
            raise ValueError(
                f"epoch_s {self.sim_config.epoch_s:g} s is not a whole "
                f"number of eval_step_s {self.sim_config.eval_step_s:g} s")
        self.codes = underlay.codes
        self.pairs = underlay.pairs
        self._streams = RngStreams(self.sim_config.seed)
        self._grouping = ProbingGroupManager(
            self.codes, self.sim_config.monitoring.representatives)
        #: Every directed link the monitoring push reports, tier by
        #: tier in `pairs` order: (tier, src, dst) index vectors.
        column = {code: i for i, code in enumerate(self.codes)}
        self._monitored = tuple(
            np.array(axis, dtype=np.intp) for axis in zip(*(
                (tier, column[a], column[b])
                for tier in range(len(TYPE_ORDER))
                for (a, b) in self.pairs)))

        self.controller: Optional[Controller] = (
            build_controller(self.codes, self.control_config,
                             underlay.pricing, self.sim_config, variant)
            if variant.overlay_relaying else None)

        self._probe_seeds: Dict[PathHop, int] = {}

    # ------------------------------------------------------------------ api
    def close(self) -> None:
        """Close the controller, if any (idempotent)."""
        if self.controller is not None:
            self.controller.close()

    def __enter__(self) -> "EpochSimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, start_s: float, duration_s: float) -> SimulationResult:
        cfg = self.sim_config
        n_epochs = int(np.ceil(duration_s / cfg.epoch_s))
        steps_per_epoch = int(round(cfg.epoch_s / cfg.eval_step_s))
        n_steps = n_epochs * steps_per_epoch
        n_pairs = len(self.pairs)
        pair_idx = {p: i for i, p in enumerate(self.pairs)}

        times = start_s + np.arange(n_steps) * cfg.eval_step_s
        latency = np.zeros((n_pairs, n_steps), dtype=np.float32)
        loss = np.zeros((n_pairs, n_steps), dtype=np.float32)
        backup = np.zeros((n_pairs, n_steps), dtype=bool)
        epoch_starts = start_s + np.arange(n_epochs) * cfg.epoch_s
        demand_rec = np.zeros((n_pairs, n_epochs))
        containers = np.zeros((len(self.codes), n_epochs), dtype=int)
        ledger = PairCostLedger(self.underlay.pricing)
        internet_gb = np.zeros(n_epochs)
        premium_gb = np.zeros(n_epochs)
        churn = np.zeros(n_epochs)
        normal_hops: List[Tuple[int, float]] = []
        reaction_hops: List[Tuple[int, float]] = []
        prev_paths: Dict[RegionPair, Tuple] = {}

        pools = build_pools(self.codes, self._streams, cfg, start_s)

        for e in range(n_epochs):
            now = float(epoch_starts[e])
            epoch_end = now + cfg.epoch_s
            if _TEL.enabled:
                _TEL.counter("simulator.epochs").inc()
            matrix = TrafficMatrix.from_model(self.demand, now,
                                              cfg.demand_scale)
            for pair, d in matrix.items():
                demand_rec[pair_idx[pair], e] = d
            ready = {code: pools[code].ready_count(now)
                     for code in self.codes}
            containers[:, e] = [ready[c] for c in self.codes]

            output = None
            if self.controller is not None:
                self._push_reports(now)
                output = self.controller.run_epoch(now, matrix, ready)
                if self.variant.elastic:
                    for code, target in output.capacity.target.items():
                        pools[code].scale_to(target, now)
                    if _TEL.enabled:
                        _TEL.event(
                            "autoscale", t=now, policy="capacity_control",
                            target=output.capacity.total_target(),
                            ready=sum(ready.values()))
                placed = output.path_result
                normal_hops.extend(zip(
                    placed.routes.hops[placed.route].tolist(),
                    placed.mbps.tolist()))

            cache = _EpochLinkCache(
                self.underlay, now, epoch_end, cfg.eval_step_s,
                cfg.monitoring, cfg.reaction, self._probe_seed)
            sl = slice(e * steps_per_epoch, (e + 1) * steps_per_epoch)
            rep_paths = self._representative_paths(output)
            cache.fill((hop for (path, __) in rep_paths.values()
                        for hop in path.hops),
                       probe=self.variant.fast_reaction)
            # Route churn: how many pairs changed representative paths.
            if prev_paths:
                changed = 0
                for pair, (path, __) in rep_paths.items():
                    if prev_paths.get(pair) == path.hops:
                        continue
                    changed += 1
                    if _TEL.enabled:
                        _TEL.counter("simulator.path_changes").inc()
                        _TEL.event(
                            "path_decision", t=now, src=pair[0], dst=pair[1],
                            hops=[f"{a}->{b}:{t.value}"
                                  for a, b, t in path.hops],
                            previous_hops=len(prev_paths[pair])
                            if pair in prev_paths else 0)
                churn[e] = changed / len(rep_paths)
            prev_paths = {pair: path.hops
                          for pair, (path, __) in rep_paths.items()}
            self._evaluate_epoch(output, matrix, cache, sl, latency, loss,
                                 backup, ledger, e, internet_gb,
                                 premium_gb, reaction_hops, cfg.epoch_s,
                                 rep_paths)
            if _TEL.enabled:
                # Epoch boundary: push accumulated metric deltas to an
                # attached telemetry stream (no-op without one).
                _TEL.flush_stream(now)

        if self.variant.overlay_relaying:
            end = start_s + n_epochs * cfg.epoch_s
            for code, pool in pools.items():
                ledger.add_container_hours(code, pool.container_hours(end))

        return SimulationResult(
            variant=self.variant, pairs=list(self.pairs),
            region_codes=list(self.codes), eval_step_s=cfg.eval_step_s,
            epoch_s=cfg.epoch_s, times=times, latency_ms=latency,
            loss_rate=loss, on_backup=backup, epoch_starts=epoch_starts,
            demand_mbps=demand_rec, containers=containers, ledger=ledger,
            normal_hop_samples=normal_hops,
            reaction_hop_samples=reaction_hops,
            internet_gb_per_epoch=internet_gb,
            premium_gb_per_epoch=premium_gb,
            path_change_fraction=churn)

    # -------------------------------------------------------------- internal
    def _probe_seed(self, hop: PathHop) -> int:
        """Seed of the hop's probing hash-noise stream — the event
        engine's first representative's on that link (one BLAKE2b per
        hop per simulator, not per epoch)."""
        seed = self._probe_seeds.get(hop)
        if seed is None:
            seed = self._probe_seeds[hop] = link_seed(self._streams, "probe",
                                                      hop)
        return seed

    def _push_reports(self, now: float) -> None:
        """Group-based monitoring: R noisy representative measurements per
        directed link, median-aggregated into one NIB report."""
        assert self.controller is not None
        rng = self._streams.get("monitor.noise")
        reps = self.sim_config.monitoring.representatives
        # True link states come from one vectorised underlay snapshot,
        # and the measurement noise from one block drawn in the stream order of
        # the per-link formulation: link by link (tier, then pair), per
        # representative a latency factor in [0.97, 1.03) and then a
        # loss factor in [0.8, 1.2), each `low + (high - low) * u`.
        snap = self.underlay.snapshot(now)
        tier, src, dst = self._monitored
        noise = rng.random((len(tier), reps, 2))
        latency = (snap.lat[tier, src, dst, None]
                   * (0.97 + (1.03 - 0.97) * noise[..., 0]))
        loss = np.clip(snap.loss[tier, src, dst, None]
                       * (0.8 + (1.2 - 0.8) * noise[..., 1]), 0.0, 1.0)
        reports = self._grouping.aggregate(
            src, dst, tier, [(slice(None), latency.T, loss.T)], now)
        self.controller.nib.update_many(reports)
        if _TEL.enabled:
            _TEL.counter("simulator.probe_rounds").inc()
            _TEL.event("probe_round", t=now, region="*",
                       representatives=reps, reports=len(reports))

    def _representative_paths(self, output: Optional[ControlOutput]
                              ) -> Dict[RegionPair, Tuple[OverlayPath,
                                                          Optional[int]]]:
        """Each pair's representative assignment
        (`PathControlResult.best_per_pair`), else a direct path; a
        pair's path is built only for its chosen route."""
        #: pair -> (route id, stream id) of its representative.
        chosen: Dict[RegionPair, Tuple[int, int]] = {}
        if output is not None:
            placed = output.path_result
            best = placed.best_per_pair()
            rows = list(best.values())
            chosen = dict(zip(best, zip(
                placed.route[rows].tolist(),
                output.table.stream_id[placed.position[rows]].tolist())))
        fallback_type = (LinkType.INTERNET if self.variant.internet_allowed
                         else LinkType.PREMIUM)
        result: Dict[RegionPair, Tuple[OverlayPath, Optional[int]]] = {}
        for pair in self.pairs:
            if pair in chosen:
                rid, sid = chosen[pair]
                result[pair] = (output.path_result.routes.path(rid), sid)
            else:
                result[pair] = (OverlayPath.direct(pair[0], pair[1],
                                                   fallback_type), None)
        return result

    def _evaluate_epoch(self, output: Optional[ControlOutput],
                        matrix: TrafficMatrix, cache: _EpochLinkCache,
                        sl: slice, latency: np.ndarray, loss: np.ndarray,
                        backup: np.ndarray, ledger: PairCostLedger,
                        epoch: int, internet_gb: np.ndarray,
                        premium_gb: np.ndarray,
                        reaction_hops: List[Tuple[int, float]],
                        epoch_s: float,
                        rep_paths: Dict[RegionPair,
                                        Tuple[OverlayPath,
                                              Optional[int]]]) -> None:
        """Every pair's series and bill (`rep_paths` in `pairs` order)."""
        plans = output.plans_by_region if output is not None else {}

        def plan_fn(stream_id: Optional[int]):
            def plan_for(region: str):
                if stream_id is None:
                    return None
                return plans[region].get(stream_id)
            return plan_for

        # Every detour some pair may switch to this epoch (a degraded
        # on-path hop whose region can react) is built once, here, and
        # its hops are evaluated in blocks before the pass.
        paths = [path for path, __ in rep_paths.values()]
        detours = [path_detours(path, cache.reaction, plan_fn(stream_id))
                   if self.variant.fast_reaction else [None] * len(path.hops)
                   for path, stream_id in rep_paths.values()]
        cache.fill((hop for row in detours for detour in row
                    if detour is not None for hop in detour.hops),
                   probe=False)
        series = effective_path_series(paths, cache.times, cache.series,
                                       cache.reaction, detours)
        latency[:, sl] = series.latency_ms
        loss[:, sl] = series.loss_rate
        backup[:, sl] = series.on_backup

        # ---- cost attribution ------------------------------------------
        for (pair, (path, stream_id)), frac_backup in zip(
                rep_paths.items(), series.backup_fraction.tolist()):
            d = matrix.get(*pair)
            if d <= 0:
                continue
            normal_d = d * (1.0 - frac_backup)
            for (a, b, t) in path.hops:
                if t is LinkType.INTERNET:
                    ledger.add_internet_traffic_for_pair(pair, a, normal_d,
                                                         epoch_s)
                    internet_gb[epoch] += normal_d * epoch_s / 8000.0
                else:
                    ledger.add_premium_traffic_for_pair(pair, a, b, normal_d,
                                                        epoch_s)
                    premium_gb[epoch] += normal_d * epoch_s / 8000.0
            if frac_backup > 0:
                # Reaction traffic: billed on the backup premium path
                # (approximated by its first-hop plan; the measured mean
                # reaction hop count is ~1.04, §6.3).
                relays = plan_fn(stream_id)(path.regions[0]) or (pair[1],)
                backup_regions = (path.regions[0],) + tuple(relays)
                reacted = d * frac_backup
                for a, b in zip(backup_regions[:-1], backup_regions[1:]):
                    ledger.add_premium_traffic_for_pair(pair, a, b, reacted,
                                                        epoch_s)
                    premium_gb[epoch] += reacted * epoch_s / 8000.0
                reaction_hops.append((len(backup_regions) - 1, reacted))
                if _TEL.enabled:
                    _TEL.counter("simulator.failovers").inc()
                    _TEL.event(
                        "failover", t=float(cache.t0), src=pair[0],
                        dst=pair[1], backup_fraction=round(frac_backup, 4),
                        reacted_mbps=round(reacted, 3),
                        backup_hops=len(backup_regions) - 1,
                        planned=stream_id is not None)
