"""Deadline coexistence tests: SIGALRM alarms vs asyncio loops (issue #9).

The orchestrator's `_deadline` uses ``SIGALRM``/``setitimer``; an
asyncio event loop (the serve mode) owns signal delivery in its thread.
These tests pin the truce: the alarm path refuses to arm under a
running loop and never leaves a stray handler or itimer behind.
"""

import asyncio
import signal
import time

import pytest

from repro.experiments.orchestrator import ExperimentTimeout, _deadline


def test_alarm_deadline_fires_outside_a_loop():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ExperimentTimeout):
        with _deadline(0.05):
            time.sleep(1.0)
    # The handler and itimer were restored on the way out.
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_alarm_deadline_is_noop_under_a_running_loop():
    """Under asyncio, `_deadline` must not arm: the loop owns signals."""

    async def main():
        before = signal.getsignal(signal.SIGALRM)
        with _deadline(0.01):
            time.sleep(0.05)  # would raise if the alarm had armed
            assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    asyncio.run(main())


def test_alarm_deadline_does_not_clobber_loop_signal_handlers():
    """A loop-installed handler survives a `_deadline` block."""
    hits = []

    async def main():
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGUSR1, lambda: hits.append(1))
        try:
            with _deadline(0.01):
                time.sleep(0.02)
            signal.raise_signal(signal.SIGUSR1)
            # Let the loop deliver the wakeup.
            for _ in range(10):
                await asyncio.sleep(0.01)
                if hits:
                    break
        finally:
            loop.remove_signal_handler(signal.SIGUSR1)

    asyncio.run(main())
    assert hits == [1]


def test_alarm_deadline_still_arms_after_a_loop_closed():
    """Leaving asyncio hands SIGALRM back to the alarm path."""

    async def main():
        with _deadline(0.05):
            pass  # no-op inside the loop

    asyncio.run(main())
    with pytest.raises(ExperimentTimeout):
        with _deadline(0.05):
            time.sleep(1.0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
