"""Stream cohorts: planetary workloads in O(region pairs) memory.

`StreamWorkload` emits one SIB entry per demand *chunk*; at planetary
scale (hundreds of regions, millions of concurrent sessions) the
controller cannot hold — nor does Algorithm 1 need — an entry per
session.  A :class:`StreamCohort` is a bitrate-weighted *bundle* of all
same-``(src, dst)`` sessions sharing a band of video profiles: the
bundle's ``demand_mbps`` is what path control places on paths, while
``sessions`` records how many user sessions it aggregates (a float —
the marginal session is fractional).  Memory is
``O(pairs x cohorts_per_pair)`` regardless of user count: a million
concurrent 1080p viewers on one pair is still one cohort entry.

Cohorts are plain `Stream` subclasses, so every consumer of the SIB —
``path_control``, ``capacity_control``, reaction-plan generation, the
`Controller`, and `EpochSimulator` — accepts them unchanged; pass
``workload=CohortWorkload(...)`` to `Controller`, or set
``SimulationConfig.stream_cohorts`` for simulator runs.

Determinism: the profile mix per pair is stateless hash noise keyed by
``(seed, src, dst)``, so decomposition order never matters and the same
``(matrix, seed)`` always yields identical cohorts.  Conservation: the
cohort demand of a pair sums to the pair's matrix demand exactly (up to
float addition, < 1e-9 relative), and :meth:`CohortWorkload.expand`
reconstructs an equivalent per-session workload whose total bitrate
matches bit-for-bit by construction (each component expands to
``floor(sessions)`` full-rate sessions plus one fractional-rate tail
session).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.sim.rng import RngStreams, hash_uniform
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import Stream, VIDEO_PROFILES, VideoProfile


@dataclass
class StreamCohort(Stream):
    """An aggregated bundle of same-pair sessions (see module docstring).

    ``profile`` is the bundle's dominant (highest-demand) profile —
    what the SIB reports as the representative encoding; ``components``
    break the bundle down as ``(profile name, sessions, mbps)`` tuples.
    """

    #: Exact aggregated session count (fractional tail included).
    sessions: float = 0.0
    #: Per-profile breakdown: (profile name, sessions, demand_mbps).
    components: Tuple[Tuple[str, float, float], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sessions < 0:
            raise ValueError(
                f"cohort {self.stream_id}: negative sessions {self.sessions}")


@dataclass
class CohortWorkloadStats:
    """Aggregate statistics of one decomposition."""

    cohorts: int = 0
    sessions: float = 0.0
    demand_mbps: float = 0.0
    dropped_pairs: int = 0
    dropped_mbps: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"cohorts": self.cohorts, "sessions": self.sessions,
                "demand_mbps": self.demand_mbps,
                "dropped_pairs": self.dropped_pairs,
                "dropped_mbps": self.dropped_mbps}


#: Profiles in ascending bitrate order — cohort buckets split this list
#: contiguously so each cohort bundles adjacent quality bands.
_PROFILES_BY_RATE: List[VideoProfile] = sorted(
    VIDEO_PROFILES, key=lambda p: p.bitrate_mbps)


class CohortWorkload:
    """Decomposes a traffic matrix into at most ``cohorts_per_pair``
    aggregated cohort entries per ordered region pair.

    ``min_pair_mbps`` optionally drops pairs below a demand floor (the
    long planetary tail rides direct paths anyway); dropped demand is
    accounted in :attr:`last_stats`, never silently.  The id counter is
    a plain int so a warm-restarted controller keeps allocating fresh
    ids, exactly like `StreamWorkload`.
    """

    def __init__(self, seed: int = 0, cohorts_per_pair: int = 2,
                 min_pair_mbps: float = 0.0, mix_jitter: float = 0.5):
        if cohorts_per_pair < 1:
            raise ValueError("need at least one cohort per pair")
        if not 0.0 <= mix_jitter <= 1.0:
            raise ValueError("mix_jitter must be in [0, 1]")
        if min_pair_mbps < 0:
            raise ValueError("min_pair_mbps must be non-negative")
        self.seed = int(seed)
        self.cohorts_per_pair = int(cohorts_per_pair)
        self.min_pair_mbps = float(min_pair_mbps)
        self.mix_jitter = float(mix_jitter)
        self._streams = RngStreams(self.seed)
        self._next_id = 0
        #: (src, dst) -> normalised profile weights.  A pure function of
        #: (seed, pair), so derived state: memoised, never checkpointed.
        self._pair_weights: Dict[Tuple[str, str], np.ndarray] = {}
        #: Statistics of the most recent `decompose` call.
        self.last_stats = CohortWorkloadStats()
        # Contiguous profile buckets, low band first.
        self._buckets: List[List[VideoProfile]] = [
            list(chunk) for chunk in np.array_split(
                np.array(_PROFILES_BY_RATE, dtype=object),
                min(self.cohorts_per_pair, len(_PROFILES_BY_RATE)))]

    # ------------------------------------------------------------------ api
    def decompose(self, matrix: TrafficMatrix) -> List[StreamCohort]:
        """One pass over the matrix; see the class docstring."""
        stats = CohortWorkloadStats()
        cohorts: List[StreamCohort] = []
        for (src, dst), demand in matrix.items():
            if demand <= 0:
                continue
            if demand < self.min_pair_mbps:
                stats.dropped_pairs += 1
                stats.dropped_mbps += demand
                continue
            weights = self._pair_weights.get((src, dst))
            if weights is None:
                weights = self._pair_weights[(src, dst)] = \
                    self._profile_weights(src, dst)
            demand_per_profile = demand * weights
            idx = 0
            for bucket in self._buckets:
                mbps = 0.0
                sessions = 0.0
                components = []
                dominant: VideoProfile = bucket[0]
                dominant_mbps = -1.0
                for profile in bucket:
                    d = float(demand_per_profile[idx])
                    idx += 1
                    if d <= 0:
                        continue
                    n = d / profile.bitrate_mbps
                    components.append((profile.name, n, d))
                    mbps += d
                    sessions += n
                    if d > dominant_mbps:
                        dominant, dominant_mbps = profile, d
                if mbps <= 0:
                    continue
                cohorts.append(StreamCohort(
                    self._next_id, src, dst, mbps, dominant,
                    session_count=max(1, int(round(sessions))),
                    sessions=sessions, components=tuple(components)))
                self._next_id += 1
                stats.cohorts += 1
                stats.sessions += sessions
                stats.demand_mbps += mbps
        self.last_stats = stats
        return cohorts

    def _profile_weights(self, src: str, dst: str) -> np.ndarray:
        """Normalised popularity of each profile (ascending bitrate) on
        one pair: stateless per-pair jitter on the base mix, so pairs
        differ but re-decomposition is order-independent."""
        base_weights = np.array([p.weight for p in _PROFILES_BY_RATE])
        pair_seed = self._streams.seed_for(f"cohort.{src}->{dst}")
        jitter = hash_uniform(pair_seed,
                              np.arange(len(_PROFILES_BY_RATE)), salt=7)
        weights = base_weights * (1.0 - self.mix_jitter / 2.0
                                  + self.mix_jitter * jitter)
        return weights / weights.sum()

    def expand(self, cohorts: List[StreamCohort],
               max_sessions: int = 1_000_000) -> List[Stream]:
        """The equivalent per-session workload of a cohort list.

        Each component becomes ``floor(sessions)`` full-bitrate session
        streams plus one fractional tail session carrying the remaining
        demand, so total bitrate is conserved exactly.  Guarded by
        ``max_sessions`` — expansion exists for verification at test
        scale, not for planetary runs (that is the whole point of
        cohorts).
        """
        profiles = {p.name: p for p in VIDEO_PROFILES}
        total = sum(int(np.ceil(s)) for c in cohorts
                    for (__, s, __d) in c.components)
        if total > max_sessions:
            raise ValueError(f"expansion would create {total} sessions "
                             f"(> {max_sessions}); raise max_sessions "
                             "only at test scale")
        out: List[Stream] = []
        sid = 0
        for cohort in cohorts:
            for (name, sessions, mbps) in cohort.components:
                profile = profiles[name]
                n_full = int(sessions)
                for __ in range(n_full):
                    out.append(Stream(sid, cohort.src, cohort.dst,
                                      profile.bitrate_mbps, profile))
                    sid += 1
                tail = mbps - n_full * profile.bitrate_mbps
                if tail > 1e-12:
                    out.append(Stream(sid, cohort.src, cohort.dst, tail,
                                      profile))
                    sid += 1
        return out

    def session_statistics(self, cohorts: List[StreamCohort]
                           ) -> Dict[str, float]:
        """Aggregate stats the SIB exposes to operators."""
        if not cohorts:
            return {"streams": 0, "sessions": 0.0, "demand_mbps": 0.0}
        return {
            "streams": len(cohorts),
            "sessions": float(sum(c.sessions for c in cohorts)),
            "demand_mbps": float(sum(c.demand_mbps for c in cohorts)),
        }

    # ------------------------------------------------------------ checkpoint
    def export_state(self) -> Dict[str, object]:
        """Only the id counter is stateful (the mix is stateless hash
        noise), so warm restarts keep ids globally fresh."""
        return {"next_id": self._next_id}

    def import_state(self, doc: Dict[str, object]) -> None:
        self._next_id = int(doc["next_id"])
