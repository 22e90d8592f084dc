"""Tests for container pools and provisioning delays."""

import numpy as np
import pytest

from repro.elastic import containers
from repro.elastic.containers import (ContainerPool, ScalingAction,
                                      startup_delay)


@pytest.fixture()
def pool(rng):
    return ContainerPool("HGH", rng, initial=2, max_containers=10)


class TestProvisioningDelayModel:
    def test_delay_takes_tens_of_seconds_at_least(self, rng):
        delays = [startup_delay(rng, 1.0) for __ in range(200)]
        assert min(delays) > 25.0

    def test_mean_delay_on_minutes_scale(self, rng):
        delays = [startup_delay(rng, 1.0) for __ in range(500)]
        assert 60.0 < np.mean(delays) < 240.0

    def test_platform_load_slows_provisioning(self, monkeypatch):
        monkeypatch.setattr(containers, "IP_ALLOCATION_MEAN_S", 60.0)
        base = np.mean([startup_delay(np.random.default_rng(i), 1.0)
                        for i in range(300)])
        loaded = np.mean([startup_delay(np.random.default_rng(i), 5.0)
                          for i in range(300)])
        assert loaded > base + 60.0

    def test_rejects_load_below_one(self, rng, monkeypatch):
        """A platform load below one never reaches the delay model: a
        scale-up runs under the calm platform's load of 1."""
        loads = _script_delays(monkeypatch, [10.0])
        pool = ContainerPool("X", rng, initial=0, max_containers=10)
        pool.platform_load_fn = lambda now: 0.5
        pool.scale_to(1, now=0.0)
        assert loads == [1.0]

    def test_cache_hit_skips_image_pull(self, rng, monkeypatch):
        monkeypatch.setattr(containers, "IMAGE_CACHE_HIT_RATE", 1.0)
        delays = [startup_delay(rng, 1.0) for __ in range(200)]
        assert max(delays) < 45 + 30 + 60  # no pull component


class TestContainerPool:
    def test_initial_ready(self, pool):
        assert pool.ready_count(0.0) == 2

    def test_scale_up_not_ready_immediately(self, pool):
        pool.scale_to(5, now=0.0)
        assert pool.ready_count(1.0) == 2

    def test_scale_up_ready_after_delay(self, pool):
        pool.scale_to(5, now=0.0)
        assert pool.ready_count(600.0) == 5

    def test_total_count_includes_inflight(self, pool):
        pool.scale_to(5, now=0.0)
        # The three starts still in flight count toward the target.
        assert pool.scale_to(5, now=1.0).added == 0
        assert pool.ready_count(1.0) == 2

    def test_scale_down_is_immediate(self, pool):
        action = pool.scale_to(1, now=0.0)
        assert pool.ready_count(0.0) == 1
        assert action.removed == 1

    def test_scale_down_cancels_inflight_first(self, pool):
        pool.scale_to(6, now=0.0)
        pool.scale_to(3, now=1.0)  # cancel 3 of the 4 in flight
        assert pool.ready_count(600.0) == 3
        assert pool.ready_count(600.0) >= 2  # ready ones never cancelled

    def test_target_capped_at_max(self, pool):
        assert pool.scale_to(100, now=0.0).added == 10 - 2
        assert pool.scale_to(100, now=1.0).added == 0

    def test_negative_target_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.scale_to(-1, now=0.0)

    def test_scale_to_zero_allowed(self, pool):
        pool.scale_to(0, now=0.0)
        assert pool.ready_count(0.0) == 0

    def test_invalid_initial_rejected(self, rng):
        with pytest.raises(ValueError):
            ContainerPool("X", rng, initial=11, max_containers=10)

    def test_time_cannot_go_backwards(self, pool):
        pool.ready_count(100.0)
        with pytest.raises(ValueError):
            pool.ready_count(50.0)

    def test_actions_recorded(self, pool):
        pool.scale_to(5, now=0.0)
        pool.scale_to(2, now=10.0)
        assert len(pool.actions) == 2
        assert isinstance(pool.actions[0], ScalingAction)
        assert pool.actions[0].added == 3

    def test_container_hours_for_steady_pool(self, pool):
        hours = pool.container_hours(3600.0)
        assert hours == pytest.approx(2.0)

    def test_container_hours_counts_additions_from_ready_time(self, rng):
        pool = ContainerPool("X", rng, initial=0, max_containers=10)
        pool.scale_to(1, now=0.0)
        # The container becomes ready somewhere within ~4 minutes; after
        # one hour the billed amount is strictly between 0 and 1 hour.
        hours = pool.container_hours(3600.0)
        assert 0.80 < hours < 1.0

    def test_container_hours_no_double_billing(self, rng):
        pool = ContainerPool("X", rng, initial=0, max_containers=10)
        pool.scale_to(1, now=0.0)
        # Query repeatedly (each accounting pass must not re-bill).
        h1 = pool.container_hours(1000.0)
        h2 = pool.container_hours(1000.0)
        assert h1 == pytest.approx(h2)
        h3 = pool.container_hours(2000.0)
        assert h3 == pytest.approx(h1 + (1000.0 / 3600.0), abs=1e-6)

    def test_removed_containers_stop_billing(self, pool):
        pool.scale_to(0, now=0.0)
        assert pool.container_hours(7200.0) == pytest.approx(0.0)


def _script_delays(monkeypatch, delays):
    """Makes the pools' startup delays a scripted sequence; returns the
    list the platform loads they were drawn under go to."""
    delays, loads = list(delays), []

    def scripted(rng, platform_load):
        loads.append(platform_load)
        return delays.pop(0)

    monkeypatch.setattr(containers, "startup_delay", scripted)
    return loads


class TestContainerPoolEdges:
    """Exact-timestamp and accounting edges of the pool lifecycle."""

    @pytest.fixture
    def scripted_pool(self, rng, monkeypatch):
        def make(delays, initial=0):
            _script_delays(monkeypatch, delays)
            return ContainerPool("X", rng, initial=initial,
                                 max_containers=10)
        return make

    def test_scale_down_cancels_newest_completions_first(self,
                                                         scripted_pool):
        # Three starts finishing at t=100, 50, 10; cancelling two must
        # keep the EARLIEST completion (slowest-to-finish die first).
        pool = scripted_pool([100.0, 50.0, 10.0])
        pool.scale_to(3, now=0.0)
        pool.scale_to(1, now=1.0)
        assert pool.ready_count(9.99) == 0
        assert pool.ready_count(10.0) == 1
        assert pool.ready_count(1000.0) == 1  # the others never arrive

    def test_ready_count_promotes_at_exact_completion_time(self,
                                                           scripted_pool):
        pool = scripted_pool([10.0])
        pool.scale_to(1, now=0.0)
        assert pool.ready_count(9.999999) == 0
        assert pool.ready_count(10.0) == 1  # boundary belongs to ready

    def test_inflight_billing_across_repeated_accounting(self,
                                                         scripted_pool):
        # Accounting at t=15 (while the start is already complete but
        # not yet promoted) must bill [10, 15]; accounting again at
        # t=20 must bill only [15, 20] — never [10, 20] twice.
        pool = scripted_pool([10.0])
        pool.scale_to(1, now=0.0)
        assert pool.container_hours(15.0) == pytest.approx(5.0 / 3600.0)
        assert pool.container_hours(20.0) == pytest.approx(10.0 / 3600.0)
        # Same-instant repeats are idempotent.
        assert pool.container_hours(20.0) == pytest.approx(10.0 / 3600.0)

    def test_billing_starts_at_ready_not_at_request(self, scripted_pool):
        pool = scripted_pool([10.0])
        pool.scale_to(1, now=0.0)
        assert pool.container_hours(10.0) == pytest.approx(0.0)

    def test_platform_load_fn_inflates_scale_up(self, rng, monkeypatch):
        loads = _script_delays(monkeypatch, [10.0, 10.0])
        pool = ContainerPool("X", rng, initial=0, max_containers=10)
        pool.platform_load_fn = lambda now: 8.0
        pool.scale_to(2, now=0.0)
        assert loads == [8.0, 8.0]
