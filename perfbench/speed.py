"""Host-speed correction for case timings.

On a shared host the same pure-Python work can take anywhere from 1x to
about 1.9x its best time, in phases of one to tens of seconds, and a whole
run can fall inside a slow one.  The timed phase therefore interleaves a
fixed reference kernel (an exact Fraction elimination written here, so no
engine change can alter it) with the cases: one sample per REF_EVERY_S of
case time.  A case's corrected latency is its wall time times
REF_S / (median of the ten samples nearest to it), i.e. the time it would
have taken with the host running the kernel in REF_S.  Set-up is corrected
the same way, from samples taken between its steps.  Engine work and the
kernel are both interpreter-bound, so they slow down together; the raw wall
times are reported next to the corrected ones.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction

REF_S = 0.0033  # kernel time that defines the reference speed
REF_EVERY_S = 0.04  # case time between two kernel samples
SETUP_EVERY_S = 0.1  # set-up time between two kernel samples
WINDOW = 5  # samples taken on each side of a case


def reference_kernel(n: int = 12) -> Fraction:
    """Row-reduce a fixed n x n rational matrix; returns its determinant."""
    rng = random.Random(5)
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


class Speedometer:
    """Kernel samples taken between cases, and the correction they imply."""

    def __init__(self, warmup: int = 2 * WINDOW):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._owed = 0.0
        for _ in range(warmup):
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def after_case(self, case_s: float) -> None:
        """Take one sample for every REF_EVERY_S of case time since the last one."""
        self._owed += case_s
        while self._owed >= REF_EVERY_S:
            self._owed -= REF_EVERY_S
            self.sample()

    def tick(self) -> None:
        """Take a sample if SETUP_EVERY_S has passed since the last one (set-up)."""
        if time.perf_counter() - self.starts[-1] >= SETUP_EVERY_S:
            self.sample()

    def kernel_s(self) -> float:
        """Time spent in kernel samples so far."""
        return sum(self.durations)

    def scale(self) -> float:
        """Correction factor over all samples, for work that spanned all of them."""
        return REF_S / statistics.median(self.durations)

    def scale_at(self, t: float) -> float:
        """Correction factor for a case that started at perf_counter time t."""
        i = bisect.bisect_left(self.starts, t)
        near = self.durations[max(0, i - WINDOW):i + WINDOW]
        return REF_S / statistics.median(near)
