"""The per-op time limit, enforced from outside the engine call.

A SIGALRM timer interrupts the op and raises :class:`OpTimeout`, which
derives from BaseException so that no ``except Exception`` inside the
engine can swallow it.  The engine keeps no state between calls, so an
interrupted op leaves nothing behind.  Each workload sets its limit
(``Workload.limit_s``); it is the same on every commit.
"""

from __future__ import annotations

import signal
import time


class OpTimeout(BaseException):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def install() -> None:
    signal.signal(signal.SIGALRM, _alarm)


def guarded(fn, limit_s: float):
    """Run fn() under a wall-clock limit; returns (value, elapsed_s, timed_out).

    Exceptions other than the timeout propagate with the timer cleared.
    """
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return None, time.perf_counter() - start, True
    return value, time.perf_counter() - start, False
