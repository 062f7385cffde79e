"""A clock that ticks at the speed the host runs the interpreter right now.

The benchmark shares its host, and the host's speed drifts: the same
``torsor-check`` took from 0.82 s to 1.55 s within one process, and
median speeds over 5 s windows moved by a third within a minute.  So the
benchmark times this fixed pure-Python kernel around every timed block and
scales the block by ``REFERENCE_S / kernel time``.  On a host running at
the speed of the recorded baseline the scaled time is the wall time; on a
host that is 30% slower for a minute, it is still the same.  The kernel is
integer and list work that allocates no tracked objects, so it triggers no
garbage collection and does not depend on what else the process holds.
"""

from __future__ import annotations

import signal
from time import perf_counter

# The kernel's time on the host of the recorded baseline: the unit of the
# scaled times.
REFERENCE_S = 0.003
# Seconds between the readings taken inside long blocks.
PERIOD_S = 1.0

_TABLE = [[(i * j) % 7 for j in range(48)] for i in range(48)]


def _kernel() -> int:
    rows = _TABLE
    s = 0
    for i in range(48):
        ri = rows[i]
        for j in range(48):
            acc = 0
            for t in range(0, 48, 3):
                acc += ri[t] * rows[t][j]
            s += acc % 97
    return s


def reference_time(repeats: int = 3) -> float:
    """Seconds of one kernel run, the least of ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured while the kernel took ``reference``, at baseline speed."""
    return seconds * REFERENCE_S / reference


class ReferenceClock:
    """Kernel readings around and inside timed blocks.

    A reading is taken when a block ends (:meth:`reference`) and, while the
    clock is entered as a context manager, every ``PERIOD_S`` seconds from a
    SIGALRM handler, so a 40-second block is scaled by the host's speed
    over those 40 seconds and not only at its ends.  :meth:`now` leaves out
    the time the readings take.
    """

    def __init__(self, periodic: bool = True):
        self.readings: list[float] = []
        self._spent = 0.0
        self._busy = False
        self._periodic = periodic
        self._previous = None
        self._read()

    def _read(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        self.readings.append(reference_time())
        self._spent += perf_counter() - start
        self._busy = False

    def __enter__(self) -> ReferenceClock:
        if self._periodic:
            self._previous = signal.signal(signal.SIGALRM, self._read)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self._periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """perf_counter() less the time spent taking readings."""
        return perf_counter() - self._spent

    def mark(self) -> int:
        """Where a block starts: the index of the last reading before it."""
        return len(self.readings) - 1

    def reference(self, mark: int) -> float:
        """Take a reading; the mean of the readings from ``mark`` on."""
        self._read()
        window = self.readings[mark:]
        return sum(window) / len(window)
