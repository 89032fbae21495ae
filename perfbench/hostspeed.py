"""The host's speed during a run, from fixed reference work timed beside it.

On the 2-vCPU VM the baseline was measured on, the same single-threaded
code runs up to ~2x slower for stretches of seconds to minutes, on both
vCPUs alike and with no steal time recorded, presumably because other
tenants share the cores.  Ten runs made in a row then spread by more than
any bound a program change could be held to.  So the reference work below
is timed beside the measured work, and the end-to-end times are scaled to
the speed at which it takes REFERENCE_S.  The work is pure integer code,
like the program's exact kernels; ints are not tracked by the garbage
collector, so the program's heap does not change its cost.  The numpy
loops of simulate slow down less than it does, so monte_carlo figures are
corrected less well than the others.

This cancels what slows the program and the reference alike.  It would
also hide a program change that slows both, such as a busy thread left
holding the interpreter lock; run.py prints the unscaled figures beside
the scaled ones.
"""

from __future__ import annotations

import time

REFERENCE_S = 4.3e-3  # reference_work's mean time in runs on the baseline's host
SAMPLE_EVERY_S = 0.25  # of measured time


def reference_work() -> int:
    big = 1
    for i in range(1, 1500):
        big = big * 3 + i  # grows to ~2400 bits
    small = 0
    for i in range(40_000):
        small = (small * 31 + i) % 1_000_003
    return big % 97 + small


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class HostSpeed:
    """Reference work timed between queries, weighted by the time it stands for.

    ``after`` is called with each query's latency.  Once SAMPLE_EVERY_S of
    measured time has gathered, it times the reference work and weights the
    sample by that gathered time, so a long query counts as long as it ran.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (reference seconds, weight)
        self.pending = 0.0

    def after(self, measured_s: float) -> float:
        """Gather ``measured_s``; sample when due.  Returns the seconds spent sampling."""
        self.pending += measured_s
        return self.sample() if self.pending >= SAMPLE_EVERY_S else 0.0

    def sample(self) -> float:
        took = time_reference()
        self.samples.append((took, self.pending))
        self.pending = 0.0
        return took

    def slowdown(self) -> float:
        """Weighted mean reference time over REFERENCE_S: above 1 on a slow host."""
        if self.pending:
            self.sample()
        total = sum(weight for _, weight in self.samples)
        return sum(took * weight for took, weight in self.samples) / total / REFERENCE_S
