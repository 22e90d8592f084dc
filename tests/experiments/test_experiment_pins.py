"""Pinned outputs of the experiments that run the solver directly.

Fig. 19, the weight sweep and the ordering ablation call `path_control`
themselves instead of going through a `Controller`, so no golden covers
them.  These digests were recorded before the experiments moved from
scalar link-state callbacks to one `Underlay.snapshot` per epoch; a
digest that moves means an experiment's numbers moved.
"""

import hashlib

from repro.experiments import (ablation_ordering, ablation_weights,
                               fig19_asymmetric)


def _digest(values) -> str:
    return hashlib.sha256(
        " ".join(float(v).hex() for v in values).encode()).hexdigest()[:16]


def test_fig19_speedups(full_underlay):
    result = fig19_asymmetric.run(full_underlay, n_epochs=2)
    assert _digest(result.speedups) == "c37f2a3ecd3cad11"


def test_weight_sweep_points(full_underlay):
    sweep = ablation_weights.run(full_underlay,
                                 exchange_rates=(0.0, 120.0), n_epochs=2)
    assert _digest(v for rate in sorted(sweep.points)
                   for v in (rate, *sweep.points[rate])) == "e3362507ce7bac55"


def test_ordering_outcomes(full_underlay):
    result = ablation_ordering.run(full_underlay, n_epochs=2)
    assert _digest(v for mode in sorted(result.outcomes)
                   for v in result.outcomes[mode]) == "2b32790ba43f53cb"
