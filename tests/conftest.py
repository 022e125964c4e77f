"""A time limit for collecting each test module and for running each test,
and the test oracle of the real core-nilpotent form.

A defect that makes elimination loop forever, or that inflates exact
coefficients without bound, would hang the suite instead of failing it, and
some modules build their inputs at import, so collection can hang too.  So
each module's collection and each test get TIME_LIMIT_S of wall time, about
30 times the slowest test, from the stdlib interval timer: SIGALRM
interrupts the main thread, where pytest collects and runs, and the handler
raises there.  The error derives from BaseException, so neither an
``except Exception`` in the code under test nor hypothesis's shrinking takes
it for an ordinary failure and runs on.  Where the platform has no SIGALRM
there is no limit.

The oracle, ``support.core_nilpotent_oracle``, is installed here in place of
``real_inverses._core_nilpotent_at``, before any test module is collected,
so every test and every input built at import runs the guards of the form,
which production does not run.  A test that needs the production function
alone calls ``support.core_nilpotent_production``.
"""

import signal
from contextlib import contextmanager

import pytest

from dualinv import real_inverses

import support

real_inverses._core_nilpotent_at = support.core_nilpotent_oracle

TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """A test, or the collection of a module, ran longer than TIME_LIMIT_S."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"ran longer than {TIME_LIMIT_S} s")


@contextmanager
def _time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    with _time_limit():
        return (yield)


@pytest.fixture(autouse=True)
def time_limit():
    with _time_limit():
        yield
