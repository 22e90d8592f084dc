"""The XRON controller: one control loop over NIB + SIB (§5).

Each epoch (five minutes in production) the controller:

1. ingests the demand measured over the last epoch into the SIB and
   predicts the next epoch's demand (DTFT + production rule, §5.1);
2. decomposes the predicted matrix into schedulable streams;
3. runs Algorithm 1 against the *current* topology (step 1, §5.3);
4. runs capacity control to add/remove gateways (step 2, §5.3);
5. generates fast-reaction plans for every path (Algorithm 2, §5.4);
6. emits forwarding tables, reaction plans, and scaling targets.

Its one link-state planning setting is `nib_window`, which is also the
planning mode: the last report per link, or the pessimistic
`repro.controlplane.nib.ROBUST_PERCENTILE` over a longer window.  The
predictor's harmonics and history and Algorithm 1's rebuild budget are
fixed design values, named where they are read.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.controlplane.capacity import CapacityDecision, capacity_control
from repro.controlplane.model import ControlConfig
from repro.controlplane.nib import NetworkInformationBase
from repro.controlplane.pathcontrol import (EpochSolveContext,
                                            PathControlResult, path_control)
from repro.controlplane.reactionplan import (ReactionPlan, RegionPlans,
                                             generate_reaction_plans)
from repro.controlplane.sib import StreamInformationBase
from repro.obs import telemetry as _telemetry
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import Stream, StreamTable, StreamWorkload
from repro.underlay.linkstate import LinkType
from repro.underlay.pricing import PricingModel
from repro.underlay.snapshot import TYPE_INDEX, LinkStateSnapshot

_TEL = _telemetry()

#: Assigned pairs the `control_epoch` event names, heaviest first.
TOP_PAIRS = 16


@dataclass
class ControlOutput:
    """Everything the controller pushes to the data plane for one epoch.

    The installs and the engines read columns: `table` (the epoch's
    streams), `path_result`'s columns and tables, and `plans_by_region`.
    `streams` and `reaction_plans` are the object forms experiments
    read, built once, on first read."""

    epoch_start: float
    path_result: PathControlResult
    capacity: CapacityDecision
    #: Algorithm 2's plans as installed: region -> stream id -> relays.
    plans_by_region: RegionPlans
    predicted_matrix: TrafficMatrix
    table: StreamTable

    @property
    def streams(self) -> List[Stream]:
        return self.table.streams()

    @cached_property
    def reaction_plans(self) -> Dict[Tuple[int, str], ReactionPlan]:
        """The plans keyed by (stream id, region), in the order
        Algorithm 2 meets them: each assignment's non-terminal regions,
        path order, first assignment first."""
        result, codes = self.path_result, self.path_result.routes.codes
        a, h, rows = result.hop_steps()
        region, sids = rows[a, h], self.table.stream_id[result.position[a]]
        __, first = np.unique(sids * len(codes) + region, return_index=True)
        first.sort()
        return {(sid, codes[r]): ReactionPlan(
                    sid, codes[r], self.plans_by_region[codes[r]][sid])
                for sid, r in zip(sids[first].tolist(),
                                  region[first].tolist())}

    def stream_specs(self) -> List[Tuple[int, str, str]]:
        """The distinct (stream id, src, dst) of the assignments, in
        first-assignment order — what an install must deliver."""
        table = self.table
        codes, stream_ids = table.codes, table.stream_id.tolist()
        src, dst = table.src.tolist(), table.dst.tolist()
        return list(dict.fromkeys(
            (stream_ids[p], codes[src[p]], codes[dst[p]])
            for p in self.path_result.position.tolist()))


class Controller:
    """Logically centralised control plane."""

    def __init__(self, codes: List[str], config: Optional[ControlConfig] = None,
                 pricing: Optional[PricingModel] = None, *,
                 symmetric_only: bool = False,
                 premium_only: bool = False,
                 nib_window: int = 1,
                 sib_params: Optional[Dict[str, int]] = None,
                 workload: Optional[object] = None,
                 seed: int = 0):
        """`nib_window` is the number of reports kept per link, and with
        it the planning mode: 1 plans on each link's last report, more
        on the window's pessimistic percentile (flap damping, see
        `link_snapshot`); `sib_params` overrides `StreamInformationBase`
        keyword arguments (``refit_every``, ``min_history``) for
        deployments whose epoch cadence differs from the production
        five-minute slots; `workload` swaps the demand decomposition —
        any object with ``decompose(matrix)``, e.g. a
        `repro.traffic.cohorts.CohortWorkload` for planet-scale region
        sets (default: the per-chunk `StreamWorkload`).  Only a
        `StreamWorkload` carries checkpoint state, so only a controller
        on the default workload can `export_state`."""
        self.codes = list(codes)
        self.config = config if config is not None else ControlConfig()
        self.pricing = pricing
        self.symmetric_only = symmetric_only
        self.premium_only = premium_only
        self.nib = NetworkInformationBase(window=nib_window,
                                          codes=self.codes)
        self.sib = StreamInformationBase(self.codes, **(sib_params or {}))
        self._workload = (workload if workload is not None
                          else StreamWorkload(np.random.default_rng(seed)))
        self.epochs_run = 0

    def close(self) -> None:
        """Teardown hook for drivers (idempotent).

        The solve runs in process, so there is nothing to release.
        """

    # ------------------------------------------------------------------ api
    def link_snapshot(self) -> LinkStateSnapshot:
        """The NIB's link state as the solver sees it, over the
        controller's region set.

        The run-epoch algorithms all consume this one snapshot, so link
        state is read once per epoch: each link's last report with a
        one-report NIB window, else its `ROBUST_PERCENTILE` over the
        window; never-reported links are (inf, 1).  The topology
        variants apply as whole-matrix masks: the Internet-only /
        premium-only baselines see the disallowed tier as (inf, 1), and
        the symmetric-only ablation sees the round-trip view
        (`LinkStateSnapshot.symmetric`).
        """
        if self.nib.window > 1:
            snap = self.nib.robust_snapshot(self.codes)
        else:
            snap = self.nib.latest_snapshot(self.codes)
        if self.premium_only:
            snap.lat[TYPE_INDEX[LinkType.INTERNET]] = np.inf
            snap.loss[TYPE_INDEX[LinkType.INTERNET]] = 1.0
        if self.symmetric_only:
            snap = snap.symmetric()
        return snap

    def run_epoch(self, now: float, observed_matrix: TrafficMatrix,
                  gateways: Dict[str, int]) -> ControlOutput:
        """One full control computation.

        `observed_matrix` is the demand measured over the epoch that just
        ended; `gateways` the current per-region ready container counts.
        The NIB must already hold fresh link reports (the data plane's
        monitoring pushes them continuously).
        """
        traced = _TEL.enabled
        t0 = time.perf_counter() if traced else 0.0
        with _TEL.span("algo_step", t=now, step="predict"):
            self.sib.record_epoch(observed_matrix)
            predicted = self.sib.predicted_matrix()
            streams = self._workload.decompose(predicted)

        with _TEL.span("algo_step", t=now, step="link_snapshot",
                       regions=len(self.codes)):
            snap = self.link_snapshot()

        # One shared context per epoch: step 1 and capacity control's
        # uncapacitated re-run reuse the same edge-weight build and
        # route table.
        ctx = EpochSolveContext()
        with _TEL.span("algo_step", t=now, step="algo1.path_control"):
            r_cur = path_control(streams, self.codes, snap,
                                 self.config, gateways=gateways,
                                 fees=self.pricing, context=ctx)
        with _TEL.span("algo_step", t=now, step="capacity_control"):
            decision = capacity_control(streams, self.codes, snap,
                                        self.config, gateways, r_cur,
                                        fees=self.pricing, context=ctx)
        with _TEL.span("algo_step", t=now, step="algo2.reaction_plans"):
            plans = generate_reaction_plans(r_cur, snap)
        self.epochs_run += 1
        if traced:
            _TEL.counter("controller.epochs").inc()
            # Per-pair demand attribution for the phase profiler
            # (`repro.obs.profile`): the heaviest assigned pairs and
            # their Mbps, so path-control time can be apportioned.
            # Summed in assignment order (`np.bincount` adds in order);
            # named only where a pair can be among the heaviest: at or
            # above the `TOP_PAIRS`-th heaviest sum (ties by name).
            codes, n = streams.codes, len(streams.codes)
            pair = (streams.src[r_cur.position] * n
                    + streams.dst[r_cur.position])
            used = np.unique(pair)
            total = np.bincount(pair, weights=r_cur.mbps, minlength=n * n)
            mbps = total[used]
            heavy = (used[mbps >= np.partition(mbps, -TOP_PAIRS)[-TOP_PAIRS]]
                     if len(used) > TOP_PAIRS else used)
            top = heapq.nsmallest(
                TOP_PAIRS, zip([(codes[k // n], codes[k % n])
                                for k in heavy.tolist()],
                               total[heavy].tolist()),
                key=lambda kv: (-kv[1], kv[0]))
            _TEL.event(
                "control_epoch", t=now,
                streams=len(streams),
                assignments=r_cur.route.size,
                unassigned=len(r_cur.unassigned_at),
                graph_rebuilds=r_cur.graph_rebuilds,
                reaction_plans=sum(len(by_stream)
                                   for by_stream in plans.values()),
                predicted_mbps=round(predicted.total(), 3),
                observed_mbps=round(observed_matrix.total(), 3),
                assigned_mbps=round(r_cur.total_assigned_mbps(), 3),
                pairs=len(used),
                top_pairs=[[src, dst, round(mbps, 3)]
                           for (src, dst), mbps in top],
                capacity_target=decision.total_target(),
                duration_ms=round((time.perf_counter() - t0) * 1e3, 3))
        return ControlOutput(now, r_cur, decision, plans, predicted, streams)

    # ------------------------------------------------------------ checkpoint
    def export_state(self) -> Dict[str, object]:
        """JSON-serializable learned state for `repro.resilience`
        checkpoints: the NIB's windowed reports, the SIB's demand
        histories and fitted models, and the workload's id counter + RNG
        state.  Configuration is excluded — a warm restart constructs
        the controller with the deployment's config and imports only the
        state."""
        return {"epochs_run": self.epochs_run,
                "nib_reports": self.nib.export_reports(),
                "sib": self.sib.export_state(),
                "workload": self._workload.export_state()}

    def import_state(self, doc: Dict[str, object]) -> None:
        """Restore state exported by `export_state` into this (freshly
        constructed, identically configured) controller."""
        self.epochs_run = int(doc["epochs_run"])
        self.nib.import_reports(doc["nib_reports"])
        self.sib.import_state(doc["sib"])
        self._workload.import_state(doc["workload"])
