"""The per-test time limit of ``conftest.py`` interrupts a running test."""

import signal
import time

import pytest


def test_a_test_that_outlives_the_timer_is_interrupted():
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("no SIGALRM on this platform")
    # re-arm the fixture's timer to fire almost at once
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    end = time.monotonic() + 5
    with pytest.raises(BaseException, match="^ran longer than 60 s$") as info:
        while time.monotonic() < end:
            pass
    # not an Exception, so no ``except Exception`` under test swallows it
    assert not isinstance(info.value, Exception)
