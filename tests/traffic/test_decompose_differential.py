"""`StreamWorkload.decompose` as one array pass equals the per-pair
``dirichlet`` + ``choice`` loop it replaced (`decompose_oracle.py`):
over drawn matrices of 2-12 regions (zero, tiny, exact-multiple-of-50
and above-cap demands, pairs in any order), caps 1-8 and several calls
on one generator, every column with its dtype, the next id and the
generator's state after each call are equal.

Mutation check: each of these fails this module —
- ``np.sum`` for a pair's share total (pairwise, not sequential);
- every gamma drawn before every uniform;
- ``searchsorted(side="left")`` for the profiles;
- ``floor(x + 0.5)`` for the sessions.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import StreamWorkload, VIDEO_PROFILES, _PROFILE_CDF
from tests.traffic.decompose_oracle import decompose as oracle

DEMANDS = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-310, 1e-300, 1e-9]),
    st.integers(1, 10).map(lambda k: 50.0 * k),
    st.floats(0.0, 1000.0),
    st.floats(400.0, 1e9))


@st.composite
def matrices(draw):
    """Demand over a drawn subset of a 2-12 region mesh's ordered
    pairs, in drawn (unsorted) order."""
    codes = [f"R{i:02d}" for i in range(draw(st.integers(2, 12)))]
    mesh = [(a, b) for a in codes for b in codes if a != b]
    pairs = draw(st.lists(st.sampled_from(mesh), unique=True,
                          max_size=len(mesh)))
    values = draw(st.lists(DEMANDS, min_size=len(pairs),
                           max_size=len(pairs)))
    return TrafficMatrix.from_arrays(codes, pairs, values)


def columns(table):
    return [(column.dtype.str, column.tobytes()) for column in (
        table.stream_id, table.src, table.dst, table.mbps, table.profile,
        table.sessions)]


def assert_same_calls(rng_of, cap, stream):
    """Each matrix of `stream`, in turn, through the array pass and the
    oracle on twin workloads: equal after every call."""
    array, loop = StreamWorkload(rng_of(), cap), StreamWorkload(rng_of(), cap)
    for matrix in stream:
        assert (columns(array.decompose(matrix))
                == columns(oracle(loop, matrix)))
        assert array._next_id == loop._next_id
        assert (array._rng.bit_generator.state
                == loop._rng.bit_generator.state)


#: A pair of 8 chunks whose first gammas (seed 0) the pairwise
#: ``np.sum`` totals differently from `Generator.dirichlet`'s
#: sequential sum (`test_the_pinned_pair_sums_differ`).
EIGHT_CHUNKS = TrafficMatrix.from_arrays(["A", "B"], [("A", "B")], [400.0])
ALL_ZERO = TrafficMatrix.from_arrays(["A", "B", "C"],
                                     [("B", "A"), ("A", "C")], [0.0, 0.0])


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8),
       st.lists(matrices(), min_size=1, max_size=3))
@example(0, 8, [EIGHT_CHUNKS])
@example(0, 8, [ALL_ZERO, EIGHT_CHUNKS, ALL_ZERO])
@settings(max_examples=150, deadline=None)
def test_the_array_pass_equals_the_pair_loop(seed, cap, stream):
    assert_same_calls(lambda: np.random.default_rng(seed), cap, stream)


def test_the_pinned_pair_sums_differ():
    """`EIGHT_CHUNKS`' pin is live: its gammas' pairwise sum is not
    their left-to-right one."""
    gammas = np.random.default_rng(0).standard_gamma(4.0, 8)
    assert math.ceil(EIGHT_CHUNKS.values[0] / 50.0) == 8
    assert np.sum(gammas) != sum(gammas.tolist())


def generator_with_uniform_at(value: float) -> np.random.Generator:
    """A generator whose first ``standard_gamma(4.0, 1)`` is followed
    by a ``random()`` of exactly `value` (a multiple of 2**-53 in
    [0.5, 1)).  PCG64 outputs ``hi ^ lo`` of a state whose top six bits
    are 0, so the state that outputs ``word`` is set and wound back to
    the output before the gamma's draws, whose count is found by trying."""
    word = int(value * 2 ** 53) << 11
    for before in range(1, 16):
        rng = np.random.Generator(np.random.PCG64(0))
        state = rng.bit_generator.state
        state["state"]["state"] = word
        rng.bit_generator.state = state
        rng.bit_generator.advance(2 ** 128 - before - 1)
        start = rng.bit_generator.state
        rng.standard_gamma(4.0, 1)
        if rng.random() == value:
            rng.bit_generator.state = start
            return rng
    raise AssertionError(f"no state yields {value}")


def test_a_uniform_on_a_profile_boundary_takes_the_next_profile():
    """``choice`` picks ``searchsorted(side="right")``: a uniform equal
    to a CDF value falls into the next profile."""
    boundary = float(_PROFILE_CDF[2])
    assert 0.5 <= boundary < 1.0
    one_chunk = TrafficMatrix.from_arrays(["A", "B"], [("A", "B")], [10.0])
    assert_same_calls(lambda: generator_with_uniform_at(boundary), 8,
                      [one_chunk])
    table = StreamWorkload(generator_with_uniform_at(boundary)).decompose(
        one_chunk)
    assert table.profile.tolist() == [3]


def test_half_sessions_round_to_even():
    """Single-chunk pairs whose demand is 2.5 or 4.5 times some
    profile's bitrate: where the drawn profile is that one, the chunk
    is a tie of sessions, and ties go to the even count."""
    codes = [f"R{i:02d}" for i in range(12)]
    pairs = [(a, b) for a in codes for b in codes if a != b]
    ties = [m * p.bitrate_mbps for m in (2.5, 4.5) for p in VIDEO_PROFILES]
    matrix = TrafficMatrix.from_arrays(
        codes, pairs, [ties[k % len(ties)] for k in range(len(pairs))])
    assert_same_calls(lambda: np.random.default_rng(5), 1, [matrix])
    table = StreamWorkload(np.random.default_rng(5), 1).decompose(matrix)
    sessions = table.mbps / np.array(
        [VIDEO_PROFILES[p].bitrate_mbps for p in table.profile.tolist()])
    tied = sessions[sessions % 1.0 == 0.5]
    assert len(tied)
    assert np.array_equal(table.sessions[sessions % 1.0 == 0.5],
                          np.rint(tied))


def test_an_infinite_demand_raises_as_the_loop_does():
    """An infinite demand has no chunk count: both forms refuse it."""
    matrix = TrafficMatrix.from_arrays(["A", "B"], [("A", "B"), ("B", "A")],
                                       [10.0, float("inf")])
    for decompose in (StreamWorkload.decompose, oracle):
        with pytest.raises(OverflowError):
            decompose(StreamWorkload(np.random.default_rng(0)), matrix)
