"""The stopwatch: speed samples on a timer, kept out of what it reports."""

import signal
import time

import pytest

from benchmarks.e2e import hostclock
from benchmarks.e2e.hostclock import REFERENCE_KERNEL_S, Stopwatch, host_speed


def test_host_speed_is_the_mean_sampled_speed_relative_to_the_best():
    assert host_speed([REFERENCE_KERNEL_S] * 3) == pytest.approx(1.0)
    assert host_speed([2 * REFERENCE_KERNEL_S]) == pytest.approx(0.5)
    # Half the time at full speed, half at half speed: 0.75 of the work.
    assert host_speed([REFERENCE_KERNEL_S, 2 * REFERENCE_KERNEL_S]) == (
        pytest.approx(0.75))
    assert hostclock.speed_kernel() > 0


def _spin(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def test_stopwatch_samples_on_a_timer_and_excludes_the_samples(monkeypatch):
    monkeypatch.setattr(hostclock, "SAMPLE_INTERVAL_S", 0.01)
    before = signal.getsignal(signal.SIGALRM)
    watch = Stopwatch()
    started = time.perf_counter()
    with watch:
        clock0 = watch.now()
        _spin(0.2)
        clock1 = watch.now()
    elapsed = time.perf_counter() - started
    reading = watch.take()
    assert len(reading.kernel_s) >= 5            # the timer fired
    sampled = sum(reading.kernel_s)
    # The region's wall and its clock leave the samples' time out.
    assert reading.wall_s <= elapsed - 0.9 * sampled
    assert reading.wall_s == pytest.approx(clock1 - clock0, abs=0.01)
    assert 0 < reading.cpu_s <= reading.wall_s + 0.01
    assert reading.speed > 0
    # Timer off and the previous handler back.
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_stopwatch_accumulates_regions_until_taken():
    watch = Stopwatch()
    with watch:
        _spin(0.02)
    with watch:
        _spin(0.02)
    reading = watch.take()
    assert reading.wall_s >= 0.04 and len(reading.kernel_s) >= 2
    again = watch.take()
    assert again.wall_s == 0.0 and again.kernel_s == []
