"""The columnar demand path against its per-pair oracle.

`TrafficMatrix` (columns with a memoised sort), `PredictorBank` /
`RollingPredictor` (histories as arrays) and `StreamInformationBase`
must agree bit for bit with `tests/controlplane/sib_oracle.py` — the
dict matrix that sorts on every `items` call, one `RollingPredictor`
object per pair — over drawn histories: predictions, `items` order,
`total` and checkpoint JSON, across `min_history`, `refit_every` and
`history_slots` trimming, partial matrices (absent pairs fall behind)
and `export_state` -> `import_state` mid-run.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.controlplane.prediction import PredictorBank, RollingPredictor
from repro.controlplane.sib import StreamInformationBase
from repro.traffic.matrix import TrafficMatrix
from tests.controlplane import sib_oracle as oracle

CODES = ("A", "B", "C", "D")

#: Demands with ties, zeros, a wide magnitude range and values whose
#: left-to-right sum rounds differently from a pairwise one.
demands = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 1e16, 3.0]),
                    st.floats(0.0, 1e4, allow_nan=False))


def bits(x: float) -> str:
    return float(x).hex()


def matrix_view(matrix) -> dict:
    """Everything a consumer reads off a matrix, floats as bit strings."""
    pairs = [(a, b) for a in CODES + ("Z",) for b in CODES if a != b]
    return {"items": [(pair, bits(v)) for pair, v in matrix.items()],
            "total": bits(matrix.total()), "len": len(matrix),
            "get": [bits(matrix.get(*pair)) for pair in pairs]}


@st.composite
def epochs(draw, codes):
    """A run of epochs: each records a (possibly partial) matrix with
    its pairs in a drawn order, or checkpoints and restores."""
    pairs = [(a, b) for a in codes for b in codes if a != b]
    run = []
    for __ in range(draw(st.integers(1, 16))):
        if draw(st.integers(0, 5)) == 0:
            run.append("checkpoint")
            continue
        present = draw(st.permutations(pairs))
        if draw(st.booleans()):  # a partial matrix: some pairs absent
            present = present[:draw(st.integers(0, len(present)))]
        run.append({pair: draw(demands) for pair in present})
    return run


class TestMatrix:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_dict_matrix(self, data):
        pairs = [(a, b) for a in CODES for b in CODES if a != b]
        demand = {pair: data.draw(demands)
                  for pair in data.draw(st.permutations(pairs))}
        # A second matrix over the same pairs in another order shares
        # the memo with the first only through its own pairs tuple.
        reordered = {pair: demand[pair]
                     for pair in data.draw(st.permutations(list(demand)))}
        factor = data.draw(st.sampled_from([0.0, 0.5, 1.1, 3.0]))
        for d in (demand, reordered, demand):
            new, old = (TrafficMatrix(list(CODES), d),
                        oracle.TrafficMatrix(list(CODES), d))
            assert matrix_view(new) == matrix_view(old)
            assert (matrix_view(new.scaled(factor))
                    == matrix_view(old.scaled(factor)))
            assert [pair for pair, __ in new.items()] == sorted(d)

    def test_same_length_different_order(self):
        """The memo is keyed by the pairs tuple itself: two tuples of
        one length sort differently."""
        first = TrafficMatrix(["A", "B", "C"], {("B", "A"): 1.0,
                                                ("A", "C"): 2.0})
        second = TrafficMatrix(["A", "B", "C"], {("C", "B"): 3.0,
                                                 ("A", "B"): 4.0})
        assert list(first.items()) == [(("A", "C"), 2.0), (("B", "A"), 1.0)]
        assert list(second.items()) == [(("A", "B"), 4.0), (("C", "B"), 3.0)]

    def test_total_is_a_left_to_right_sum(self):
        """`ndarray.sum` adds in blocks and would keep the small terms
        that a left-to-right sum rounds away."""
        demand = {("A", "B"): 1e16}
        demand.update({(a, b): 1.0 for a in CODES for b in CODES
                       if a != b and (a, b) != ("A", "B")})
        matrix = TrafficMatrix(list(CODES), demand)
        assert matrix.total() == oracle.TrafficMatrix(
            list(CODES), demand).total() == 1e16


def _run_sib(codes, run, min_history, refit_every):
    new = StreamInformationBase(list(codes), refit_every=refit_every,
                                min_history=min_history)
    old = oracle.StreamInformationBase(list(codes), refit_every=refit_every,
                                       min_history=min_history)
    for step in run:
        if step == "checkpoint":
            doc_new, doc_old = new.export_state(), old.export_state()
            assert json.dumps(doc_new) == json.dumps(doc_old)
            new = StreamInformationBase(list(codes), refit_every=refit_every,
                                        min_history=min_history)
            old = oracle.StreamInformationBase(
                list(codes), refit_every=refit_every,
                min_history=min_history)
            new.import_state(json.loads(json.dumps(doc_new)))
            old.import_state(json.loads(json.dumps(doc_old)))
        else:
            new.record_epoch(TrafficMatrix(list(codes), step))
            old.record_epoch(oracle.TrafficMatrix(list(codes), step))
        if old._last_matrix is None:  # restored before any record
            with pytest.raises(RuntimeError):
                new.predicted_matrix()
        else:
            assert (matrix_view(new.predicted_matrix())
                    == matrix_view(old.predicted_matrix()))
    assert json.dumps(new.export_state()) == json.dumps(old.export_state())


class TestSIB:
    @given(n_codes=st.integers(2, 4), min_history=st.integers(1, 8),
           refit_every=st.integers(1, 5), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_pair_sib(self, n_codes, min_history, refit_every,
                                  data):
        codes = CODES[:n_codes]
        _run_sib(codes, data.draw(epochs(codes)), min_history, refit_every)

    @given(seed=st.integers(0, 2 ** 16), refit_every=st.integers(5, 60))
    @settings(max_examples=4, deadline=None)
    def test_matches_past_the_history_window(self, seed, refit_every):
        """Six hundred epochs cross the default 576-slot window, so the
        histories trim while the fits keep refreshing."""
        rng = np.random.default_rng(seed)
        pairs = [("A", "B"), ("B", "A")]
        run = [{pair: float(v) for pair, v in zip(pairs, rng.gamma(2.0, 50.0,
                                                                  2))}
               for __ in range(600)]
        run[300] = "checkpoint"
        run[590] = {("B", "A"): 7.0}
        _run_sib(("A", "B"), run, 4, refit_every)

    def test_unknown_pair_rejected_like_the_oracle(self):
        matrix = {("A", "Z"): 1.0}
        for sib, cls in ((StreamInformationBase(["A", "B"]), TrafficMatrix),
                         (oracle.StreamInformationBase(["A", "B"]),
                          oracle.TrafficMatrix)):
            with pytest.raises(KeyError):
                sib.record_epoch(cls(["A", "B", "Z"], matrix))


class TestPredictorBank:
    @given(n_rows=st.integers(1, 4), history_slots=st.integers(1, 12),
           min_history=st.integers(1, 8), refit_every=st.integers(1, 5),
           horizon=st.integers(1, 3), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_row_predictors(self, n_rows, history_slots,
                                        min_history, refit_every, horizon,
                                        data):
        config = dict(history_slots=history_slots, refit_every=refit_every,
                      min_history=min_history)
        bank = PredictorBank(n_rows, **config)
        rows = [oracle.RollingPredictor(**config) for __ in range(n_rows)]
        for __ in range(data.draw(st.integers(1, 30))):
            if data.draw(st.integers(0, 6)) == 0:
                docs = [json.dumps(bank.export_row(k)) for k in range(n_rows)]
                assert docs == [json.dumps(r.export_state()) for r in rows]
                bank = PredictorBank(n_rows, **config)
                for k, doc in enumerate(docs):
                    bank.import_row(k, json.loads(doc))
                    rows[k] = oracle.RollingPredictor(**config)
                    rows[k].import_state(json.loads(doc))
            observed = data.draw(st.lists(st.integers(0, n_rows - 1),
                                          unique=True))
            values = [data.draw(demands) for __ in observed]
            bank.observe(np.array(observed, dtype=np.intp), values)
            for k, v in zip(observed, values):
                rows[k].observe(v)
            assert ([bits(v) for v in bank.predict(horizon)]
                    == [bits(r.predict_next(horizon)) for r in rows])

    @given(history_slots=st.integers(1, 12), min_history=st.integers(1, 8),
           refit_every=st.integers(1, 5),
           values=st.lists(demands, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_rolling_predictor_is_the_one_row_bank(self, history_slots,
                                                   min_history, refit_every,
                                                   values):
        config = dict(history_slots=history_slots, refit_every=refit_every,
                      min_history=min_history)
        new, old = RollingPredictor(**config), oracle.RollingPredictor(**config)
        for v in values:
            new.observe(v)
            old.observe(v)
            assert bits(new.predict_next(2)) == bits(old.predict_next(2))
        assert (json.dumps(new._bank.export_row(0))
                == json.dumps(old.export_state()))
