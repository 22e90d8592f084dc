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
float addition, < 1e-9 relative), and each component's ``sessions`` is
its demand over its profile's bitrate: ``floor(sessions)`` full-rate
sessions plus one fractional-rate tail session.  Every positive pair is
decomposed (no demand floor), and the profile mix is the base
popularity jittered by up to +/- `MIX_JITTER` / 2 per pair.
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


#: Profiles in ascending bitrate order — cohort buckets split this list
#: contiguously so each cohort bundles adjacent quality bands.
_PROFILES_BY_RATE: List[VideoProfile] = sorted(
    VIDEO_PROFILES, key=lambda p: p.bitrate_mbps)
#: Per-pair spread of the profile mix around the base popularity.
MIX_JITTER = 0.5


class CohortWorkload:
    """Decomposes a traffic matrix into at most ``cohorts_per_pair``
    aggregated cohort entries per ordered region pair.

    The id counter is a plain int so a warm-restarted controller keeps
    allocating fresh ids, exactly like `StreamWorkload`.
    """

    def __init__(self, seed: int = 0, cohorts_per_pair: int = 2):
        if cohorts_per_pair < 1:
            raise ValueError("need at least one cohort per pair")
        self.seed = int(seed)
        self.cohorts_per_pair = int(cohorts_per_pair)
        self._streams = RngStreams(self.seed)
        self._next_id = 0
        #: (src, dst) -> normalised profile weights.  A pure function of
        #: (seed, pair), so derived state: memoised, never checkpointed.
        self._pair_weights: Dict[Tuple[str, str], np.ndarray] = {}
        # Contiguous profile buckets, low band first.
        self._buckets: List[List[VideoProfile]] = [
            list(chunk) for chunk in np.array_split(
                np.array(_PROFILES_BY_RATE, dtype=object),
                min(self.cohorts_per_pair, len(_PROFILES_BY_RATE)))]

    # ------------------------------------------------------------------ api
    def decompose(self, matrix: TrafficMatrix) -> List[StreamCohort]:
        """One pass over the matrix; see the class docstring."""
        cohorts: List[StreamCohort] = []
        for (src, dst), demand in matrix.items():
            if demand <= 0:
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
        return cohorts

    def _profile_weights(self, src: str, dst: str) -> np.ndarray:
        """Normalised popularity of each profile (ascending bitrate) on
        one pair: stateless per-pair jitter on the base mix, so pairs
        differ but re-decomposition is order-independent."""
        base_weights = np.array([p.weight for p in _PROFILES_BY_RATE])
        pair_seed = self._streams.seed_for(f"cohort.{src}->{dst}")
        jitter = hash_uniform(pair_seed,
                              np.arange(len(_PROFILES_BY_RATE)), salt=7)
        weights = base_weights * (1.0 - MIX_JITTER / 2.0
                                  + MIX_JITTER * jitter)
        return weights / weights.sum()

    # ------------------------------------------------------------ checkpoint
    def export_state(self) -> Dict[str, object]:
        """Only the id counter is stateful (the mix is stateless hash
        noise), so warm restarts keep ids globally fresh."""
        return {"next_id": self._next_id}

    def import_state(self, doc: Dict[str, object]) -> None:
        self._next_id = int(doc["next_id"])
