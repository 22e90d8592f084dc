"""Tests for the QoE summary every figure reads:
`SimulationResult.qoe_summary`, demand-weight-pooled across pairs."""

import numpy as np
import pytest

from repro.core.simulator import SimulationResult


def _summary(lat, loss, step_s=1.0, demand=None):
    """`qoe_summary` of a one-epoch result whose rows are `lat` / `loss`
    (one row per pair) and whose pairs carry `demand` Mbps."""
    lat = np.atleast_2d(np.asarray(lat, dtype=float))
    loss = np.atleast_2d(np.asarray(loss, dtype=float))
    n_pairs, n_steps = lat.shape
    demand = np.ones(n_pairs) if demand is None else np.asarray(demand)
    result = SimulationResult(
        variant=None, pairs=[(f"A{i}", f"B{i}") for i in range(n_pairs)],
        region_codes=[], eval_step_s=step_s, epoch_s=n_steps * step_s,
        times=np.arange(n_steps) * step_s, latency_ms=lat, loss_rate=loss,
        on_backup=np.zeros_like(lat, dtype=bool), epoch_starts=np.zeros(1),
        demand_mbps=demand.reshape(n_pairs, 1).astype(float),
        containers=np.zeros((0, 1)), ledger=None)
    return result.qoe_summary()


def test_healthy_summary():
    lat = np.full(1000, 100.0)
    loss = np.full(1000, 0.001)
    s = _summary(lat, loss)
    assert s.stall_ratio == 0.0
    assert s.mean_fps == pytest.approx(25.0)
    assert s.mean_fluency > 4.5
    assert s.bad_audio_fraction == 0.0
    assert s.stall_buckets == (0, 0, 0)
    assert s.samples == 1000


def test_degraded_summary():
    lat = np.full(1000, 100.0)
    lat[100:104] = 900.0  # one 4 s stall
    loss = np.zeros(1000)
    loss[500:512] = 0.2   # one 12 s stall
    s = _summary(lat, loss)
    assert s.stall_ratio == pytest.approx(16 / 1000)
    assert s.stall_buckets == (1, 0, 1)


def test_bad_audio_fraction_counts_score_one():
    lat = np.full(100, 100.0)
    loss = np.zeros(100)
    loss[:10] = 0.6  # catastrophic loss -> fluency 1
    s = _summary(lat, loss)
    assert s.bad_audio_fraction == pytest.approx(0.1)
    assert s.low_audio_fraction >= s.bad_audio_fraction


def test_pairs_are_weighted_by_demand():
    """A stalled pair carrying a quarter of the demand stalls a quarter
    of the pooled time, and its stalls still count in the buckets."""
    lat = np.array([np.full(10, 900.0), np.full(10, 100.0)])
    s = _summary(lat, np.zeros_like(lat), demand=[1.0, 3.0])
    assert s.stall_ratio == pytest.approx(0.25)
    assert s.stall_buckets == (0, 0, 1)
    assert s.samples == 20


def test_ordering_between_networks():
    """A strictly worse network never scores better."""
    rng = np.random.default_rng(0)
    lat = rng.uniform(50, 200, 500)
    loss = rng.uniform(0, 0.02, 500)
    good = _summary(lat, loss)
    bad = _summary(lat * 4, loss * 10)
    assert bad.stall_ratio >= good.stall_ratio
    assert bad.mean_fps <= good.mean_fps
    assert bad.mean_fluency <= good.mean_fluency


def test_qoe_per_day_equals_each_day_on_its_own(monkeypatch):
    """Each day's summary is the one of a result holding only that day
    (its instants and its epochs' demand), and the whole window's
    sample weights are built once, not once per day."""
    rng = np.random.default_rng(5)
    n_pairs, step_s, epoch_s = 3, 600.0, 3600.0
    n_steps = int(2.5 * 86400.0 / step_s)
    per_day, per_epoch = int(86400.0 / step_s), int(epoch_s / step_s)

    def result(lat, loss, demand):
        return SimulationResult(
            variant=None, pairs=[(f"A{i}", f"B{i}") for i in range(n_pairs)],
            region_codes=[], eval_step_s=step_s, epoch_s=epoch_s,
            times=np.arange(lat.shape[1]) * step_s, latency_ms=lat,
            loss_rate=loss, on_backup=np.zeros_like(lat, dtype=bool),
            epoch_starts=np.arange(demand.shape[1]) * epoch_s,
            demand_mbps=demand, containers=np.zeros((0, demand.shape[1])),
            ledger=None)

    lat = rng.uniform(20.0, 900.0, (n_pairs, n_steps))
    loss = rng.uniform(0.0, 0.2, (n_pairs, n_steps))
    demand = rng.uniform(0.0, 50.0, (n_pairs, n_steps // per_epoch))
    whole = result(lat, loss, demand)
    built = []
    sample_weights = SimulationResult.sample_weights
    monkeypatch.setattr(SimulationResult, "sample_weights",
                        lambda self: built.append(1) or sample_weights(self))
    days = whole.qoe_per_day()
    assert len(built) == 1
    monkeypatch.undo()
    assert len(days) == 3
    for d, summary in enumerate(days):
        sl = slice(d * per_day, (d + 1) * per_day)
        epochs = slice(d * per_day // per_epoch,
                       (d + 1) * per_day // per_epoch)
        assert summary == result(lat[:, sl], loss[:, sl],
                                 demand[:, epochs]).qoe_summary()
