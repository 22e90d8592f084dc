"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator, SimulationError


def test_clock_starts_at_given_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_schedule_and_run_until_executes_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run_until(10.0)
    assert order == ["a", "b", "c"]


def test_run_until_advances_clock_to_end_time():
    sim = Simulator()
    sim.run_until(7.5)
    assert sim.now == 7.5


def test_run_until_does_not_execute_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(1))
    sim.run_until(4.0)
    assert fired == []
    sim.run_until(5.0)
    assert fired == [1]


def test_event_at_exact_boundary_fires():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append(1))
    sim.run_until(3.0)
    assert fired == [1]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.run_until(10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(1.0, lambda i=i: order.append(i))
    sim.run_until(1.0)
    assert order == list(range(10))


def test_priority_breaks_ties_before_sequence():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("low"), priority=5)
    sim.schedule(1.0, lambda: order.append("high"), priority=0)
    sim.run_until(1.0)
    assert order == ["high", "low"]


def test_callbacks_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(1.0, lambda: chain(n + 1))

    sim.schedule(1.0, lambda: chain(0))
    sim.run_until(100.0)
    assert seen == [0, 1, 2, 3]
    assert sim.now == 100.0


def test_run_processes_everything():
    """Stepping until `step` returns False drains the queue, events the
    callbacks schedule included."""
    sim = Simulator()
    fired = []
    sim.schedule(4.0, lambda: fired.append("late"))
    sim.schedule(1.0, lambda: (fired.append("early"),
                               sim.schedule(5.0, lambda: fired.append("chained"))))
    while sim.step():
        pass
    assert fired == ["early", "late", "chained"]
    assert sim.now == 6.0


def test_events_processed_counter():
    sim = Simulator()
    for __ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run_until(2.0)
    assert sim.events_processed == 5


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run_until(100.0)

    sim.schedule(1.0, reenter)
    sim.run_until(10.0)


def test_reentrant_step_rejected():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.step()

    sim.schedule(1.0, reenter)
    sim.schedule(2.0, lambda: None)
    assert sim.step()


def test_next_time_is_none_on_an_empty_queue():
    sim = Simulator()
    assert sim.next_time() is None
    sim.schedule(1.0, lambda: None)
    assert sim.next_time() == 1.0
    assert sim.step()
    assert sim.next_time() is None


def test_step_fires_one_event_counts_it_and_advances_the_clock():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.schedule(3.0, lambda: fired.append(sim.now))
    assert sim.step()
    assert fired == [2.0]
    assert sim.now == 2.0
    assert sim.events_processed == 1
    assert sim.step()
    assert not sim.step()
    assert fired == [2.0, 3.0]
    assert sim.events_processed == 2


def test_clock_is_event_time_during_callback():
    sim = Simulator()
    observed = []
    sim.schedule(2.5, lambda: observed.append(sim.now))
    sim.run_until(10.0)
    assert observed == [2.5]


class TestPeriodicTask:
    def test_fires_every_interval(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(5.0)
        assert ticks == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_start_delay(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), start_delay=0.5)
        sim.run_until(2.6)
        assert ticks == [0.5, 1.5, 2.5]

    def test_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    def test_double_start_rejected(self):
        sim = Simulator()
        task = sim.every(1.0, lambda: None)
        with pytest.raises(SimulationError):
            task.start()

    def test_fire_count(self):
        sim = Simulator()
        task = sim.every(2.0, lambda: None)
        sim.run_until(9.0)
        assert task.fire_count == 5
