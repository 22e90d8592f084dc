"""The orchestrator's per-experiment deadline: a ``SIGALRM`` alarm that
turns a runaway experiment into `ExperimentTimeout` and leaves no stray
handler or itimer behind."""

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
