"""The detector's loss EWMA against `scipy.signal.lfilter`.

`estimator.ewma_series` runs the filter's first-order recurrence as a
numpy scan; it and the flags `reaction_active_series` raises from it
must equal `tests/dataplane/detector_oracle.py` bit for bit, over drawn
smoothing factors in (0, 1], loss fractions on the 15-packet lattice or
any non-negative float (zero and subnormals included), and 1-D, 2-D
and 3-D blocks of 0, 1, 2 or many bursts.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.estimator import ewma_series, reaction_active_series
from tests.dataplane import detector_oracle as oracle

alphas = st.one_of(st.sampled_from([1.0, 0.5, 0.3, 0.1]),
                   st.floats(0.0, 1.0, exclude_min=True))
losses = st.one_of(st.sampled_from([k / 15.0 for k in range(16)]),
                   st.floats(0.0, allow_infinity=False,
                             allow_subnormal=True))
latencies = st.one_of(st.sampled_from([100.0, 900.0]),
                      st.floats(0.0, 2000.0))
shapes = st.tuples(
    st.lists(st.integers(0, 4), max_size=2),
    st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 60)),
).map(lambda parts: tuple(parts[0]) + (parts[1],))


def bits(a: np.ndarray) -> tuple:
    return a.shape, a.dtype.str, a.tobytes()


@settings(max_examples=300, deadline=None)
@given(alpha=alphas, loss=shapes.flatmap(
    lambda shape: arrays(np.float64, shape, elements=losses)))
def test_ewma_matches_lfilter(alpha, loss):
    assert bits(ewma_series(loss, alpha)) == bits(
        oracle.lfilter_ewma(loss, alpha))


@st.composite
def detector_inputs(draw):
    shape = draw(shapes)
    lat = draw(arrays(np.float64, shape, elements=latencies))
    loss = draw(arrays(np.float64, shape, elements=losses))
    reaction = ReactionConfig(
        trigger_bursts=draw(st.integers(1, 4)),
        recover_bursts=draw(st.integers(1, 8)),
        ewma_loss_threshold=draw(st.sampled_from([0.015, 0.01, 0.1])))
    return lat, loss, reaction


@settings(max_examples=300, deadline=None)
@given(alpha=alphas, inputs=detector_inputs())
def test_flags_match_lfilter_detector(alpha, inputs):
    lat, loss, reaction = inputs
    monitoring = dataclasses.replace(MonitoringConfig(), ewma_alpha=alpha)
    assert bits(reaction_active_series(lat, loss, reaction, monitoring)) \
        == bits(oracle.reaction_active_series(lat, loss, reaction,
                                              monitoring))
