"""Timings normalised to the machine's current speed.

On a shared host the speed of the same code drifts by tens of percent
within seconds and between runs.  ``SpeedClock`` times a fixed calibration
kernel every ``every_s`` seconds between operations.  An operation's time
is then scaled by ``reference_s / kernel time around it``: the result is what
the operation would take on a machine where the kernel takes
``reference_s``.  A change to latquot moves the scaled times; a busy
neighbour does not.

The kernel must slow down with the operations it calibrates.  In-process
work is calibrated by exact rational arithmetic that never touches
latquot; a ``latquot.cli`` subprocess is calibrated by starting a bare
interpreter, since process start-up responds to the host differently from
arithmetic in a running process.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter


def fraction_kernel() -> None:
    total = Fraction(0)
    for i in range(1, 240):
        total += Fraction(1, i)


def interpreter_kernel() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True)


class SpeedClock:
    def __init__(self, kernel=fraction_kernel, reference_s: float = 8e-4, every_s: float = 0.1,
                 window: int = 2):
        """Defaults: the arithmetic kernel takes about 0.8 ms on an idle 2-core x86
        VM; an operation's speed is the median of the ``window`` samples on each
        side of it."""
        self.kernel = kernel
        self.reference_s = reference_s
        self.every_s = every_s
        self.window = window
        self.times: list[float] = []  # when each calibration sample started
        self.costs: list[float] = []  # how long the kernel took then

    @classmethod
    def for_subprocesses(cls) -> "SpeedClock":
        """A bare interpreter starts in about 50 ms on the same VM.  It is timed
        before every call and the call is scaled by its two neighbours: start-up
        time swings within a second, and a sparser or wider clock misses that."""
        return cls(interpreter_kernel, reference_s=0.05, every_s=0.0, window=1)

    def sample(self) -> None:
        t0 = perf_counter()
        self.kernel()
        self.times.append(t0)
        self.costs.append(perf_counter() - t0)

    def tick(self) -> None:
        """Sample if the last sample is older than ``every_s``; call between operations."""
        if not self.times or perf_counter() - self.times[-1] >= self.every_s:
            self.sample()

    def factor(self, at: float) -> float:
        """reference_s over the median kernel time of the samples around ``at``."""
        k = bisect.bisect_right(self.times, at)
        near = self.costs[max(0, k - self.window):k + self.window]
        return self.reference_s / statistics.median(near)

    def scale(self, at: float, seconds: float) -> float:
        return seconds * self.factor(at)
