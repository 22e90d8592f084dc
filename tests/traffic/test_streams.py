"""Tests for the stream workload decomposition."""

import numpy as np
import pytest

from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import (Stream, StreamTable, StreamWorkload,
                                   VIDEO_PROFILES, VideoProfile)


@pytest.fixture()
def matrix():
    return TrafficMatrix(["A", "B", "C"],
                         {("A", "B"): 120.0, ("B", "A"): 30.0,
                          ("A", "C"): 0.0})


def test_stream_validation_self_pair():
    with pytest.raises(ValueError):
        Stream(1, "A", "A", 1.0, VIDEO_PROFILES[0])


def test_stream_validation_negative_demand():
    with pytest.raises(ValueError):
        Stream(1, "A", "B", -1.0, VIDEO_PROFILES[0])


def test_nan_demand_rejected_per_stream_and_per_table():
    nan = float("nan")
    with pytest.raises(ValueError, match="NaN"):
        Stream(1, "A", "B", nan, VIDEO_PROFILES[0])
    with pytest.raises(ValueError, match="NaN"):
        StreamTable(["A", "B"], [1, 2], [0, 1], [1, 0], [1.0, nan], [0, 0],
                    [1.0, 1.0])


def test_decompose_preserves_total_demand(matrix):
    workload = StreamWorkload(np.random.default_rng(1))
    streams = workload.decompose(matrix).streams()
    assert sum(s.demand_mbps for s in streams) == pytest.approx(
        matrix.total())


def test_decompose_skips_zero_pairs(matrix):
    workload = StreamWorkload(np.random.default_rng(1))
    streams = workload.decompose(matrix).streams()
    assert not any(s.src == "A" and s.dst == "C" for s in streams)


def test_decompose_respects_max_streams_per_pair(matrix):
    workload = StreamWorkload(np.random.default_rng(1),
                              max_streams_per_pair=2)
    streams = workload.decompose(matrix).streams()
    per_pair = {}
    for s in streams:
        per_pair[(s.src, s.dst)] = per_pair.get((s.src, s.dst), 0) + 1
    assert max(per_pair.values()) <= 2


def test_decompose_ids_unique(matrix):
    workload = StreamWorkload(np.random.default_rng(1))
    streams = workload.decompose(matrix).streams()
    ids = [s.stream_id for s in streams]
    assert len(set(ids)) == len(ids)


def test_ids_unique_across_epochs(matrix):
    workload = StreamWorkload(np.random.default_rng(1))
    first = workload.decompose(matrix).streams()
    second = workload.decompose(matrix).streams()
    ids = [s.stream_id for s in first + second]
    assert len(set(ids)) == len(ids)


def test_session_counts_positive(matrix):
    workload = StreamWorkload(np.random.default_rng(1))
    for s in workload.decompose(matrix).streams():
        assert s.session_count >= 1


def test_profiles_drawn_from_catalogue(matrix):
    workload = StreamWorkload(np.random.default_rng(1))
    for s in workload.decompose(matrix).streams():
        assert s.profile in VIDEO_PROFILES


def test_rejects_zero_max_streams():
    with pytest.raises(ValueError):
        StreamWorkload(max_streams_per_pair=0)


def test_profile_catalogue_sane():
    assert all(isinstance(p, VideoProfile) for p in VIDEO_PROFILES)
    assert all(p.bitrate_mbps > 0 for p in VIDEO_PROFILES)
    assert abs(sum(p.weight for p in VIDEO_PROFILES) - 1.0) < 0.01
