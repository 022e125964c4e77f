"""Host-speed references: fixed work, timed between the benchmark's tasks.

The host's speed drifts by up to a factor of two within a minute, in CPU
time as well as wall time, so raw task times of one code version spread
past any usable bound.  Each task is therefore scaled by a reference timed
right before and right after it (see ``run.steady``).  The reference work is
the benchmark's own exact arithmetic, the same kind of work as the library
(``Fraction`` elimination and products in pure Python) but none of its
code, so no change to ``dualinv`` moves it.

    python3 hostspeed.py    # the reference work once, as the cli reference runs it
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
import time
from fractions import Fraction

import exact

_RNG = random.Random("host-speed reference")
MATRIX = [[Fraction(_RNG.randint(-9, 9), _RNG.randint(1, 9)) for _ in range(9)]
          for _ in range(9)]


def work() -> None:
    for _ in range(3):
        exact.rank(MATRIX)
        exact.matmul(MATRIX, MATRIX)


def _in_process() -> float:
    """The work in this process.  The collector is off while it runs, so
    garbage the library left behind does not land on it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def _in_child() -> float:
    """A fresh interpreter that does the work: interpreter start and import
    respond to the host's states unlike arithmetic does, and they are most
    of a ``dualinv`` command's time."""
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return time.perf_counter() - start


class Reference:
    """A reference timing and the nominal time that every time measured
    between two of its timings is scaled to."""

    def __init__(self, timed, nominal_s: float):
        self.timed, self.nominal_s = timed, nominal_s

    def scale(self, before: float, after: float) -> float:
        """Factor that takes a time measured between the reference timings
        ``before`` and ``after`` to the speed at which the reference takes
        ``nominal_s``."""
        return 2 * self.nominal_s / (before + after)


# On the 2-core development host the in-process work took about 13 ms in
# the host's fast state and 21-24 ms in its slow one, and the child
# 70-110 ms.
IN_PROCESS = Reference(_in_process, 0.016)
IN_CHILD = Reference(_in_child, 0.090)


if __name__ == "__main__":
    work()

