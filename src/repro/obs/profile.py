"""Control-epoch phase profiler: where does the control loop spend time?

The controller times every step of `run_epoch` with ``algo_step`` spans
(predict, link_snapshot, algo1.path_control, capacity_control,
algo2.reaction_plans), one after another: no phase nests in another.
This module aggregates them across epochs:

* per-phase **total** (sum of span durations), counts and means;
* **coverage** — the phase total against the measured full-epoch wall
  time (the ``control_epoch`` event's ``duration_ms``), so unattributed
  overhead is visible rather than silently absorbed;
* an estimated **per-region-pair attribution** of path-control time,
  apportioning the algo1 phase by each pair's share of assigned demand
  (from the ``control_epoch`` event's ``top_pairs`` field) — an
  estimate by construction, and labelled as one.

Input is JSON event dicts — `Telemetry.events_json()` live, or the
``events`` list of a telemetry file read back through
`repro.obs.export` (the ``repro obs profile`` CLI path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple


@dataclass
class PhaseStat:
    """Aggregated timing for one control-loop phase across epochs."""

    step: str
    count: int = 0
    total_ms: float = 0.0

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0


@dataclass
class EpochProfile:
    """The folded profile: phases in first-seen order plus epoch totals."""

    phases: List[PhaseStat] = field(default_factory=list)
    epochs: int = 0
    #: Sum of measured `control_epoch` wall durations.
    epoch_wall_ms: float = 0.0
    #: (src, dst) -> estimated path-control milliseconds.
    pair_share_ms: Dict[Tuple[str, str], float] = field(default_factory=dict)

    @property
    def phase_total_ms(self) -> float:
        """Time of all phases together."""
        return sum(p.total_ms for p in self.phases)

    @property
    def coverage(self) -> float:
        """Fraction of measured epoch wall time the phases explain."""
        return (self.phase_total_ms / self.epoch_wall_ms
                if self.epoch_wall_ms else 0.0)


def profile_events(events: Iterable[Dict[str, Any]]) -> EpochProfile:
    """Fold a trace's ``algo_step`` spans into an `EpochProfile`."""
    profile = EpochProfile()
    by_step: Dict[str, PhaseStat] = {}
    pair_mbps: Dict[Tuple[str, str], float] = {}
    total_mbps = 0.0
    for event in events:
        kind = event.get("kind")
        if kind == "algo_step":
            step = str(event.get("step", "?"))
            stat = by_step.get(step)
            if stat is None:
                stat = by_step[step] = PhaseStat(step)
                profile.phases.append(stat)
            duration = float(event.get("duration_ms", 0.0))
            stat.count += 1
            stat.total_ms += duration
        elif kind == "control_epoch":
            profile.epochs += 1
            profile.epoch_wall_ms += float(event.get("duration_ms", 0.0))
            for entry in event.get("top_pairs") or []:
                src, dst, mbps = entry[0], entry[1], float(entry[2])
                pair = (str(src), str(dst))
                pair_mbps[pair] = pair_mbps.get(pair, 0.0) + mbps
                total_mbps += mbps

    algo1 = by_step.get("algo1.path_control")
    if algo1 is not None and total_mbps > 0.0:
        profile.pair_share_ms = {
            pair: algo1.total_ms * mbps / total_mbps
            for pair, mbps in pair_mbps.items()}
    return profile


def render(profile: EpochProfile, max_pairs: int = 10) -> List[str]:
    """Human-readable profile table (the ``repro obs profile`` output)."""
    lines = [f"Control-epoch phase profile: {profile.epochs} epochs, "
             f"{profile.epoch_wall_ms:.1f} ms measured wall"]
    lines.append(f"{'phase':<28} {'count':>6} {'total ms':>10} "
                 f"{'mean ms':>9} {'share':>7}")
    wall = profile.epoch_wall_ms
    for stat in profile.phases:
        share = stat.total_ms / wall if wall else 0.0
        lines.append(f"{stat.step:<28} {stat.count:>6} "
                     f"{stat.total_ms:>10.2f} {stat.mean_ms:>9.3f} "
                     f"{share:>6.1%}")
    lines.append(f"{'(all phases)':<28} {'':>6} "
                 f"{profile.phase_total_ms:>10.2f} {'':>9} "
                 f"{profile.coverage:>6.1%}")
    if profile.pair_share_ms:
        lines.append("")
        lines.append(f"Estimated path-control attribution by region pair "
                     f"(demand-weighted, top {max_pairs}):")
        ranked = sorted(profile.pair_share_ms.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        for (src, dst), ms in ranked[:max_pairs]:
            lines.append(f"  {src}->{dst:<12} {ms:>10.2f} ms")
        if len(ranked) > max_pairs:
            lines.append(f"  ... {len(ranked) - max_pairs} more pairs")
    return lines


__all__ = ["EpochProfile", "PhaseStat", "profile_events", "render"]
