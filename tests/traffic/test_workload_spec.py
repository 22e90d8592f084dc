"""The workload spec: what any decomposition of a traffic matrix into
SIB streams (§5.1) must do, whichever class makes it.

Over drawn matrices (2-8 regions, a drawn subset of the ordered pairs in
drawn order, demands of 0 or 1e-6 to 1e9 Mbps) and drawn caps, both
`StreamWorkload` and `CohortWorkload` must:

- conserve demand per pair: a pair's rows sum to its matrix demand
  (to float addition, 1e-9 relative), and a pair without demand has no
  row;
- keep the rows per pair within the class's cap;
- give each row a session count consistent with its profile's bitrate:
  a chunk carries its Mbps over its profile's bitrate, rounded half to
  even and at least one session; a cohort's Mbps over its sessions is
  a bitrate of the band of profiles it bundles, which holds its
  (dominant) profile.

The seed-0 demand model's 08:00 matrix is pinned as an example.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.traffic.cohorts import _BY_RATE, CohortWorkload
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import StreamWorkload, VIDEO_PROFILES
from repro.underlay.regions import default_regions

RATES = np.array([p.bitrate_mbps for p in VIDEO_PROFILES])
DEMANDS = st.one_of(st.just(0.0), st.floats(1e-6, 50.0),
                    st.floats(50.0, 1e9))

#: The seed-0 demand model at 08:00, every pair positive.
SEED0 = TrafficMatrix.from_model(DemandModel(default_regions(), seed=0),
                                 8 * 3600.0)


@st.composite
def matrices(draw):
    codes = [f"R{i}" for i in range(draw(st.integers(2, 8)))]
    mesh = [(a, b) for a in codes for b in codes if a != b]
    pairs = draw(st.lists(st.sampled_from(mesh), unique=True,
                          max_size=len(mesh)))
    values = draw(st.lists(DEMANDS, min_size=len(pairs),
                           max_size=len(pairs)))
    return TrafficMatrix.from_arrays(codes, pairs, values)


def _chunk_sessions_fit(table, cap):
    expected = np.maximum(1.0, np.rint(table.mbps / RATES[table.profile]))
    return np.array_equal(table.sessions, expected)


def _cohort_sessions_fit(table, cap):
    """Each row's Mbps per session lies in the bitrate band of the
    profile bucket that holds its profile."""
    low, high = np.empty(len(RATES)), np.empty(len(RATES))
    for bucket in np.array_split(np.array(_BY_RATE),
                                 min(cap, len(_BY_RATE))):
        low[bucket], high[bucket] = RATES[bucket].min(), RATES[bucket].max()
    rate = table.mbps / table.sessions
    return bool(np.all((rate >= low[table.profile] * (1 - 1e-9))
                       & (rate <= high[table.profile] * (1 + 1e-9))))


#: kind -> (workload of (seed, cap), sessions check of (table, cap)).
CLASSES = {
    "streams": (lambda seed, cap: StreamWorkload(
        np.random.default_rng(seed), cap), _chunk_sessions_fit),
    "cohorts": (lambda seed, cap: CohortWorkload(
        seed=seed, cohorts_per_pair=cap), _cohort_sessions_fit),
}


@pytest.mark.parametrize("kind", list(CLASSES))
@settings(max_examples=60, deadline=None)
@given(matrix=matrices(), seed=st.integers(0, 2 ** 32 - 1),
       cap=st.integers(1, 8))
@example(matrix=SEED0, seed=0, cap=2)
def test_workload_meets_the_spec(kind, matrix, seed, cap):
    make, sessions_fit = CLASSES[kind]
    table = make(seed, cap).decompose(matrix)
    n = len(matrix.codes)
    demand = np.zeros(n * n)
    demand[matrix.rows(matrix.codes)] = matrix.values
    cell = table.src * n + table.dst
    rows = np.bincount(cell, minlength=n * n)
    summed = np.bincount(cell, weights=table.mbps, minlength=n * n)
    # Demand is conserved per pair; a pair without demand has no row.
    assert np.all(np.abs(summed - demand) <= 1e-9 * demand)
    assert np.all(rows[demand == 0] == 0)
    # The rows per pair stay within the cap.
    assert rows.max(initial=0) <= cap
    # Each row's sessions fit its profile's bitrate.
    assert sessions_fit(table, cap)
