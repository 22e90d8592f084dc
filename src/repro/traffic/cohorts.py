"""Stream cohorts: planetary workloads in O(region pairs) memory.

`StreamWorkload` emits one SIB entry per demand *chunk*; at planetary
scale (hundreds of regions, millions of concurrent sessions) the
controller cannot hold — nor does Algorithm 1 need — an entry per
session.  A *cohort* is a bitrate-weighted bundle of all same-``(src,
dst)`` sessions sharing a band of video profiles: its ``mbps`` is what
path control places on paths, while ``sessions`` records how many user
sessions it aggregates (a float — the marginal session is fractional).
Memory is ``O(pairs x cohorts_per_pair)`` regardless of user count: a
million concurrent 1080p viewers on one pair is still one row.

A decomposition is a `StreamTable` like `StreamWorkload`'s, so the
solver, capacity control, reaction-plan generation and both engines
read cohorts and chunks alike; pass ``workload=CohortWorkload(...)`` to
`Controller`, or set ``SimulationConfig.stream_cohorts`` for simulator
runs.  A row's profile is the cohort's dominant (highest-demand)
profile, the first on a tie.

A decomposition is one array pass with no Python work per pair: the
matrix's values in its memoised sorted order (`TrafficMatrix.order`,
worked out once per pairs tuple), its memoised grid rows
(`TrafficMatrix.rows`) and the memoised per-pair profile mix, one
weight matrix per region set.

Determinism: the profile mix per pair is stateless hash noise keyed by
``(seed, src, dst)``, so decomposition order never matters and the same
``(matrix, seed)`` always yields identical cohorts.  Conservation: the
cohort demand of a pair sums to the pair's matrix demand exactly (up to
float addition, < 1e-9 relative), and a cohort's ``sessions`` is the sum
over its profiles of their demand over their bitrate: ``floor(sessions)``
full-rate sessions plus one fractional-rate tail session.  Every
positive pair is decomposed (no demand floor), and the profile mix is
the base popularity jittered by up to +/- `MIX_JITTER` / 2 per pair.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.sim.rng import RngStreams, hash_uniform
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import StreamTable, VIDEO_PROFILES

#: `VIDEO_PROFILES` indices in ascending bitrate order — cohort buckets
#: split this order contiguously so each cohort bundles adjacent
#: quality bands.
_BY_RATE: List[int] = sorted(range(len(VIDEO_PROFILES)),
                             key=lambda i: VIDEO_PROFILES[i].bitrate_mbps)
_RATES = np.array([VIDEO_PROFILES[i].bitrate_mbps for i in _BY_RATE])
#: Per-pair spread of the profile mix around the base popularity.
MIX_JITTER = 0.5


class CohortWorkload:
    """Decomposes a traffic matrix into at most ``cohorts_per_pair``
    aggregated cohort rows per ordered region pair.

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
        #: Region codes -> (N * N, profiles) mix, row ``a * N + b`` the
        #: normalised profile weights of pair ``a -> b`` (ascending
        #: bitrate).  A pure function of (seed, pair), so derived state:
        #: memoised, never checkpointed.
        self._mix: Dict[Tuple[str, ...], np.ndarray] = {}
        # Contiguous profile buckets (column ranges), low band first.
        self._buckets: List[np.ndarray] = np.array_split(
            np.arange(len(_BY_RATE)),
            min(self.cohorts_per_pair, len(_BY_RATE)))

    # ------------------------------------------------------------------ api
    def decompose(self, matrix: TrafficMatrix) -> StreamTable:
        """One array pass over the matrix's positive pairs, in
        `TrafficMatrix.items` order; see the module docstring.

        Each cohort's Mbps and sessions are summed over its bucket's
        profiles left to right, skipping profiles without demand, and a
        bucket without demand makes no row (and takes no id)."""
        codes = matrix.codes
        n = len(codes)
        order = matrix.order
        demand = matrix.values[order]
        positive = demand > 0
        demand = demand[positive]
        pair_rows = matrix.rows(codes)[order][positive]
        per_profile = demand[:, None] * self._pair_mix(codes)[pair_rows]
        n_buckets = len(self._buckets)
        mbps = np.zeros((len(pair_rows), n_buckets))
        sessions = np.zeros((len(pair_rows), n_buckets))
        dominant = np.zeros((len(pair_rows), n_buckets), dtype=np.intp)
        for b, columns in enumerate(self._buckets):
            top = np.full(len(pair_rows), -1.0)
            dominant[:, b] = _BY_RATE[columns[0]]
            for k in columns.tolist():
                d = per_profile[:, k]
                has = ~(d <= 0)
                mbps[:, b] = np.where(has, mbps[:, b] + d, mbps[:, b])
                sessions[:, b] = np.where(has, sessions[:, b] + d / _RATES[k],
                                          sessions[:, b])
                better = has & (d > top)
                top = np.where(better, d, top)
                dominant[:, b] = np.where(better, _BY_RATE[k], dominant[:, b])
        keep = ~(mbps <= 0)
        count = int(keep.sum())
        first = self._next_id
        self._next_id += count
        return StreamTable(
            codes, np.arange(first, self._next_id),
            np.repeat(pair_rows // n, n_buckets)[keep.ravel()],
            np.repeat(pair_rows % n, n_buckets)[keep.ravel()],
            mbps[keep], dominant[keep], sessions[keep])

    def _pair_mix(self, codes: List[str]) -> np.ndarray:
        """Normalised popularity of each profile (ascending bitrate) on
        every ordered pair of `codes`: stateless per-pair jitter on the
        base mix, so pairs differ but re-decomposition is
        order-independent.  The diagonal rows are unused."""
        key = tuple(codes)
        mix = self._mix.get(key)
        if mix is None:
            base = np.array([VIDEO_PROFILES[i].weight for i in _BY_RATE])
            seeds = np.array([self._streams.seed_for(f"cohort.{a}->{b}")
                              for a in codes for b in codes], dtype=np.uint64)
            jitter = hash_uniform(seeds[:, None], np.arange(len(_BY_RATE)),
                                  salt=7)
            weights = base * (1.0 - MIX_JITTER / 2.0 + MIX_JITTER * jitter)
            mix = self._mix[key] = weights / weights.sum(axis=1)[:, None]
        return mix

    # ------------------------------------------------------------ checkpoint
    def export_state(self) -> Dict[str, object]:
        """Only the id counter is stateful (the mix is stateless hash
        noise), so warm restarts keep ids globally fresh."""
        return {"next_id": self._next_id}

    def import_state(self, doc: Dict[str, object]) -> None:
        self._next_id = int(doc["next_id"])
