"""Tests for traffic matrices."""

import pytest

from repro.traffic.matrix import TrafficMatrix


@pytest.fixture()
def matrix():
    return TrafficMatrix(["A", "B", "C"],
                         {("A", "B"): 10.0, ("B", "A"): 5.0,
                          ("A", "C"): 2.0, ("C", "B"): 1.0})


def test_get_existing_and_missing(matrix):
    assert matrix.get("A", "B") == 10.0
    assert matrix.get("B", "C") == 0.0


def test_total(matrix):
    assert matrix.total() == pytest.approx(18.0)


def test_len_counts_entries(matrix):
    assert len(matrix) == 4


def test_items_sorted(matrix):
    keys = [k for k, __ in matrix.items()]
    assert keys == sorted(keys)


def test_scaled(matrix):
    doubled = matrix.scaled(2.0)
    assert doubled.get("A", "B") == 20.0
    assert matrix.get("A", "B") == 10.0  # original untouched


def test_scaled_rejects_negative(matrix):
    with pytest.raises(ValueError):
        matrix.scaled(-1.0)


def test_rejects_self_pair():
    with pytest.raises(ValueError):
        TrafficMatrix(["A"], {("A", "A"): 1.0})


def test_rejects_negative_demand():
    with pytest.raises(ValueError):
        TrafficMatrix(["A", "B"], {("A", "B"): -1.0})


def test_rejects_nan_demand():
    """`nan < 0` is False: the check is ``v >= 0``, which NaN fails."""
    nan = float("nan")
    with pytest.raises(ValueError, match="NaN"):
        TrafficMatrix(["A", "B"], {("A", "B"): nan, ("B", "A"): 1.0})
    with pytest.raises(ValueError, match="NaN"):
        TrafficMatrix.from_arrays(["A", "B"], [("A", "B"), ("B", "A")],
                                  [1.0, nan])
    with pytest.raises(ValueError):
        TrafficMatrix(["A", "B"], {("A", "B"): 1.0}).scaled(nan)


def test_columns_are_read_only(matrix):
    with pytest.raises(ValueError):
        matrix.values[0] = 99.0
    assert matrix.pairs == (("A", "B"), ("B", "A"), ("A", "C"), ("C", "B"))
    assert [matrix.pairs[k] for k in matrix.order] == sorted(matrix.pairs)


def test_rejects_duplicate_pairs():
    with pytest.raises(ValueError, match="twice"):
        TrafficMatrix.from_arrays(["A", "B"], [("A", "B"), ("A", "B")],
                                  [1.0, 2.0])


def test_rows_index_the_grid(matrix):
    assert matrix.rows(["A", "B", "C"]).tolist() == [1, 3, 2, 7]
    with pytest.raises(KeyError):
        matrix.rows(["A", "B"])


def test_from_model_matches_rates(small_demand):
    t = 36000.0
    m = TrafficMatrix.from_model(small_demand, t)
    assert len(m) == len(small_demand.pairs)
    for pair in small_demand.pairs:
        assert m.get(*pair) == float(small_demand.rate_mbps(*pair, t))


def test_from_model_scale(small_demand):
    m1 = TrafficMatrix.from_model(small_demand, 36000.0)
    m2 = TrafficMatrix.from_model(small_demand, 36000.0, scale=0.1)
    assert m2.total() == pytest.approx(m1.total() * 0.1)
