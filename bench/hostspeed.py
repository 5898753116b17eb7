"""Host-speed adjustment: a fixed reference routine timed between ops.

On a shared host the speed of a core drifts by up to 1.7x over tens of
seconds, as other tenants load the machine, and every timing of a run moves
with it.  So while a workload runs, the benchmark also times a fixed
reference routine, about every ``EVERY_S`` seconds, between ops.  The
routine is pure Python of its own: no engine code, so no change to the
engine changes it.  It does the two kinds of work the engine does, which
slow down by different amounts on a loaded host: interpreter-bound dict
polynomials with fractions, and products of large integers.

An op's adjusted time is its measured time scaled by NOMINAL_S over the
median time of the ``WINDOW`` reference calls nearest to it: the time the op
would take on a host where one reference call takes NOMINAL_S.  The garbage
collector is paused during a reference call, so the engine's heap does not
change the reference's time.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left
from fractions import Fraction

NOMINAL_S = 2.0e-3  # the reference call's time on the nominal host
EVERY_S = 0.06  # op time between two reference calls
WINDOW = 5  # reference calls per op's speed estimate

_POLY = {
    (i, j, k): (7 * i + 3 * j + k) % 13 + 1
    for i in range(5) for j in range(5) for k in range(3)
    if (i + j + k) % 2 == 0
}
_BIG = 7 ** 4000 + 12345


def reference() -> tuple[Fraction, int]:
    """Square a fixed 3-variable polynomial modulo 49 and sum 40 fractions;
    multiply 11000-bit integers six times modulo another."""
    sq: dict[tuple[int, int, int], int] = {}
    for a, ca in _POLY.items():
        for b, cb in _POLY.items():
            key = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            sq[key] = (sq.get(key, 0) + ca * cb) % 49
    total = Fraction(0)
    for key, c in sorted(sq.items())[:40]:
        total += Fraction(c, 1 + key[0] + key[1])
    big = _BIG
    for _ in range(6):
        big = big * _BIG % (_BIG + 2)
    return total, big


class HostSpeed:
    """Reference timings over a run, and the host-speed scale at any moment."""

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter mid-points, increasing
        self.took: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Time one reference call."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.at.append((start + end) / 2)
        self.took.append(end - start)
        self._last = end

    def tick(self) -> None:
        """Time a reference call if EVERY_S has passed since the last one."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """NOMINAL_S over the median reference time of the WINDOW calls nearest t."""
        n = len(self.took)
        if n == 0:
            raise ValueError("no reference timings")
        lo = min(max(0, bisect_left(self.at, t) - WINDOW // 2), max(0, n - WINDOW))
        return NOMINAL_S / statistics.median(self.took[lo:lo + WINDOW])
