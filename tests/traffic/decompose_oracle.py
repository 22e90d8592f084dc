"""Stream decomposition one pair at a time: the oracle of the array pass.

`StreamWorkload.decompose` makes the two primitive draws of each live
pair in a loop and does everything else in one pass over all pairs.
Before that, it called ``rng.dirichlet`` and ``rng.choice`` per pair and
built the columns chunk by chunk.  That loop is kept here, as it ran, to
pin the array pass to it (`test_decompose_differential.py`): the same
columns with the same dtypes, the same next id, and the same generator
state after every call.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import StreamTable, StreamWorkload, VIDEO_PROFILES


def decompose(workload: StreamWorkload, matrix: TrafficMatrix) -> StreamTable:
    """`workload`'s decomposition of `matrix`, drawn from its generator
    and advancing its id counter, by the per-pair loop."""
    weights = np.array([p.weight for p in VIDEO_PROFILES])
    weights = weights / weights.sum()
    index = {code: i for i, code in enumerate(matrix.codes)}
    src_col: List[int] = []
    dst_col: List[int] = []
    mbps_col: List[float] = []
    profile_col: List[int] = []
    sessions_col: List[int] = []
    for (src, dst), demand in matrix.items():
        if demand <= 0:
            continue
        n_chunks = min(workload.max_streams_per_pair,
                       max(1, int(np.ceil(demand / 50.0))))
        shares = workload._rng.dirichlet(np.ones(n_chunks) * 4.0)
        profiles = workload._rng.choice(len(VIDEO_PROFILES), size=n_chunks,
                                        p=weights)
        a, b = index[src], index[dst]
        for share, pidx in zip(shares, profiles.tolist()):
            chunk = float(demand * share)
            if chunk <= 0:
                continue
            src_col.append(a)
            dst_col.append(b)
            mbps_col.append(chunk)
            profile_col.append(pidx)
            sessions_col.append(max(1, int(round(
                chunk / VIDEO_PROFILES[pidx].bitrate_mbps))))
    first = workload._next_id
    workload._next_id += len(mbps_col)
    return StreamTable(matrix.codes, np.arange(first, workload._next_id),
                       src_col, dst_col, mbps_col, profile_col,
                       sessions_col)
