"""Incremental path control: recompute only what the snapshot changed.

Consecutive control epochs see almost-identical link state — monitoring
noise perturbs a handful of links, and most epochs change nothing that
the solver can observe.  `IncrementalEngine` diffs each epoch's
`LinkStateSnapshot` against the last *solved* one
(`LinkStateSnapshot.delta`) and reuses previous work at three tiers:

* **identical** — the delta is empty and demand/gateways are unchanged:
  the whole previous output (result, capacity decision, reaction plans)
  is returned as-is.
* **masked** — every changed cell is an Internet-tier link whose loss
  exceeds the quality limit in *both* epochs, and the previous solve
  never ran the best-effort fallback pass (``fallback_streams == 0``):
  such links are invisible to the quality-constrained solve (their
  edges are capacity-masked to infinity either way), to path metrics
  (no assigned path traverses them), to latency limits and reaction
  plans (premium-tier reads only) — so the previous output is again
  returned as-is.
* **warm** — anything else re-runs the full greedy solve, but seeded:
  source rows whose DP outputs are bit-identical to the previous first
  build keep their reconstructed paths, per-path metrics survive when
  no region on the path touches a changed link, and reaction-plan
  route walks survive on the same condition.  The greedy pass itself
  always replays, which is what makes residual-capacity coupling
  between region pairs a non-issue: seeding only short-circuits pure
  functions of the snapshot, never the capacity bookkeeping.  When the
  previous epoch is unusable (different region set, config, fees,
  ordering, or no previous epoch at all) the engine degrades to a
  **cold** solve — the explicit invalidation path.

Every tier is value-transparent: outputs are bit-identical to the
monolithic `path_control` / `capacity_control` /
`generate_reaction_plans` on the same inputs.  (Reused tiers return the
previous epoch's *objects*, so their `Assignment.stream` references are
the previous epoch's `Stream` instances — equal by value, by the
identical-signature precondition.)  The golden-equivalence suite pins
this down, including the quality-mask threshold-crossing edge case.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.controlplane.capacity import CapacityDecision, capacity_control
from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import (EpochSolveContext,
                                            PathControlResult, _Capacities,
                                            _ShortestPaths, path_control)
from repro.controlplane.reactionplan import ReactionPlan, generate_reaction_plans
from repro.obs import telemetry as _telemetry
from repro.traffic.streams import Stream
from repro.underlay.linkstate import LinkType
from repro.underlay.pricing import PricingModel
from repro.underlay.snapshot import TYPE_INDEX, LinkStateSnapshot

_TEL = _telemetry()

#: Reuse tiers `begin_epoch` can decide on.
TIER_IDENTICAL = "identical"
TIER_MASKED = "masked"
TIER_WARM = "warm"
TIER_COLD = "cold"

_Walks = Dict[Tuple[str, ...], Dict[str, Tuple[str, ...]]]


def _hops_regions(hops: Tuple) -> Tuple[str, ...]:
    return (hops[0][0],) + tuple(h[1] for h in hops)


class IncrementalEngine:
    """Incremental drop-in for one controller's per-epoch solve.

    Usage (what `Controller.run_epoch` does in incremental mode)::

        tier = engine.begin_epoch(streams, codes, snap, config,
                                  gateways, fees)
        r_cur = engine.path_control()
        decision = engine.capacity_control()
        plans = engine.reaction_plans(config.loss_ms_penalty)
        engine.commit()

    `begin_epoch` classifies the epoch into a reuse tier; the step
    methods then either return the previous epoch's outputs (reuse
    tiers) or run the real solvers against a seeded context.  `commit`
    makes a solved epoch the new reuse base (reuse tiers keep the old
    base, so future diffs stay anchored to the snapshot that was
    actually solved).
    """

    def __init__(self):
        self._base: Optional[Dict] = None
        self._cur: Optional[Dict] = None
        self._reusing = False

    # ------------------------------------------------------------ epoch flow
    def begin_epoch(self, streams: List[Stream], codes: List[str],
                    snap: LinkStateSnapshot, config: ControlConfig,
                    gateways: Optional[Dict[str, int]],
                    fees: Optional[PricingModel] = None,
                    max_rebuilds: int = 40,
                    ordering: str = "latency_desc") -> str:
        """Classify this epoch against the base; returns the tier."""
        codes = list(codes)
        cur = {
            "streams": streams, "codes": codes, "snap": snap,
            "config": config, "gateways": gateways, "fees": fees,
            "max_rebuilds": max_rebuilds, "ordering": ordering,
            "streams_sig": tuple((s.stream_id, s.src, s.dst, s.demand_mbps)
                                 for s in streams),
            "gateways_sig": (None if gateways is None else
                             tuple(int(gateways.get(c, 0)) for c in codes)),
        }
        self._cur = cur
        tier = self._classify(cur)
        self._reusing = tier in (TIER_IDENTICAL, TIER_MASKED)
        if not self._reusing:
            cur["ctx"] = self._seeded_context(cur, warm=(tier == TIER_WARM))
        if _TEL.enabled:
            _TEL.counter(f"pathcontrol.incremental_{tier}").inc()
        return tier

    def path_control(self) -> PathControlResult:
        cur = self._cur
        if self._reusing:
            return self._base["r_cur"]
        r_cur = path_control(cur["streams"], cur["codes"], cur["snap"],
                             cur["config"], gateways=cur["gateways"],
                             fees=cur["fees"],
                             max_rebuilds=cur["max_rebuilds"],
                             ordering=cur["ordering"], context=cur["ctx"])
        cur["r_cur"] = r_cur
        return r_cur

    def capacity_control(self) -> CapacityDecision:
        cur = self._cur
        if self._reusing:
            return self._base["decision"]
        decision = capacity_control(cur["streams"], cur["codes"],
                                    cur["snap"], cur["config"],
                                    cur["gateways"] or {}, cur["r_cur"],
                                    fees=cur["fees"], context=cur["ctx"])
        cur["decision"] = decision
        return decision

    def reaction_plans(self, loss_ms_penalty: float = 2500.0
                       ) -> Dict[Tuple[int, str], ReactionPlan]:
        cur = self._cur
        if self._reusing:
            return self._base["plans"]
        walks: _Walks = {}
        base = self._base
        if (base is not None and base["codes"] == cur["codes"]
                and base["loss_ms_penalty"] == loss_ms_penalty
                and cur.get("clean") is not None):
            index = cur["snap"].index
            clean = cur["clean"]
            for route, rec_plan in base["walks"].items():
                if all(clean[index[r]] for r in route):
                    walks[route] = rec_plan
            if _TEL.enabled:
                _TEL.counter(
                    "pathcontrol.incremental_seeded_walks").inc(len(walks))
        plans = generate_reaction_plans(cur["r_cur"], cur["snap"],
                                        loss_ms_penalty, walks=walks)
        cur["plans"] = plans
        cur["walks"] = walks
        cur["loss_ms_penalty"] = loss_ms_penalty
        return plans

    def commit(self) -> None:
        """Adopt a solved epoch as the new reuse base.

        Reuse epochs leave the base untouched: its snapshot is the one
        the stored outputs were actually solved against, and future
        deltas must stay anchored to it.
        """
        cur, self._cur = self._cur, None
        if cur is None or self._reusing:
            self._reusing = False
            return
        self._base = {
            "snap": cur["snap"], "codes": cur["codes"],
            "config": cur["config"], "fees": cur["fees"],
            "gateways_sig": cur["gateways_sig"],
            "streams_sig": cur["streams_sig"],
            "max_rebuilds": cur["max_rebuilds"],
            "ordering": cur["ordering"], "ctx": cur["ctx"],
            "r_cur": cur["r_cur"], "decision": cur.get("decision"),
            "plans": cur.get("plans"), "walks": cur.get("walks", {}),
            "loss_ms_penalty": cur.get("loss_ms_penalty"),
        }

    # -------------------------------------------------------- classification
    def _classify(self, cur: Dict) -> str:
        base = self._base
        if (base is None or base["codes"] != cur["codes"]
                or base["config"] is not cur["config"]
                or base["fees"] is not cur["fees"]):
            return TIER_COLD
        delta = cur["snap"].delta(base["snap"])
        cur["delta"] = delta
        same_inputs = (base["streams_sig"] == cur["streams_sig"]
                       and base["gateways_sig"] == cur["gateways_sig"]
                       and base["max_rebuilds"] == cur["max_rebuilds"]
                       and base["ordering"] == cur["ordering"]
                       and base["decision"] is not None
                       and base["plans"] is not None)
        if same_inputs and delta.is_empty():
            return TIER_IDENTICAL
        if same_inputs and self._masked_only(cur, delta):
            return TIER_MASKED
        return TIER_WARM

    def _masked_only(self, cur: Dict, delta) -> bool:
        """True when every changed cell is invisible to the solve.

        Invisible means: Internet tier only (premium cells feed latency
        limits and reaction-plan scores unconditionally) and loss above
        the quality limit in both epochs (the edge is masked out of
        every quality-constrained graph build) — and the previous solve
        never consulted the unmasked fallback graph.
        """
        base = self._base
        if (base["r_cur"].fallback_streams
                or base["decision"].uncapacitated.fallback_streams):
            return False
        changed = delta.changed
        pi = TYPE_INDEX[LinkType.PREMIUM]
        if changed[pi].any():
            return False
        ii = TYPE_INDEX[LinkType.INTERNET]
        limit = cur["config"].loss_limit
        visible = (base["snap"].loss[ii] <= limit) | \
                  (cur["snap"].loss[ii] <= limit)
        return not bool((changed[ii] & visible).any())

    # ----------------------------------------------------------- warm seeding
    def _seeded_context(self, cur: Dict, warm: bool) -> EpochSolveContext:
        ctx = EpochSolveContext()
        if not warm:
            return ctx
        base = self._base
        snap, config, codes = cur["snap"], cur["config"], cur["codes"]
        delta = cur["delta"]
        # Regions touching any changed cell (either tier, either
        # direction) are dirty; anything reading only clean regions'
        # cells is unchanged by this delta.
        changed_any = delta.changed.any(axis=0)
        dirty = changed_any.any(axis=1) | changed_any.any(axis=0)
        clean = ~dirty
        cur["clean"] = clean
        index = snap.index
        weights = ctx.weights(snap, config, cur["fees"])
        base_ctx: EpochSolveContext = base["ctx"]
        # Path index tuples depend only on the (identical) region order.
        ctx._path_data.update(base_ctx._path_data)
        for hops, metrics in base_ctx._path_metrics.items():
            if all(clean[index[r]] for r in _hops_regions(hops)):
                ctx._path_metrics[hops] = metrics
        seeded = 0
        for gateways in (cur["gateways"], None):
            caps = _Capacities(codes, config, gateways)
            prev_sp = base_ctx._sp_cache.get(
                (True, caps.initial_region_signature))
            if prev_sp is None:
                continue
            new_sp = ctx.first_shortest_paths(weights, config, caps, True)
            seeded += self._seed_paths(prev_sp, new_sp, clean, index)
        if _TEL.enabled:
            _TEL.counter("pathcontrol.incremental_seeded_pairs").inc(seeded)
        return ctx

    @staticmethod
    def _seed_paths(prev_sp: _ShortestPaths, new_sp: _ShortestPaths,
                    clean: np.ndarray, index: Dict[str, int]) -> int:
        """Carry reconstructed paths whose DP state provably survived.

        Path reconstruction for pair (i, j) reads only source row ``i``
        of every DP layer plus `best_type` at the path's own hops, so a
        previous path is reusable when row ``i`` is bit-identical across
        all layers and every region on the path is clean (clean cells
        have unchanged weights, hence unchanged `best_type`).
        """
        if len(prev_sp._vias) != len(new_sp._vias):
            return 0
        row_ok = (new_sp.dist == prev_sp.dist).all(axis=1)
        for v_new, v_prev in zip(new_sp._vias, prev_sp._vias):
            row_ok &= (v_new == v_prev).all(axis=1)
        for m_new, m_prev in zip(new_sp._improved, prev_sp._improved):
            row_ok &= (m_new == m_prev).all(axis=1)
        seeded = 0
        for (i, j), path in prev_sp._path_cache.items():
            if not row_ok[i]:
                continue
            if path is None:
                # Row-identical distances: (i, j) is unreachable in both.
                new_sp._path_cache[(i, j)] = None
                seeded += 1
            elif all(clean[index[r]] for r in path.regions):
                new_sp._path_cache[(i, j)] = path
                seeded += 1
        return seeded
