"""A fixed pure-Python reference kernel that measures how fast the machine runs now.

On a shared host the interpreter's speed swings by up to 2x within seconds
and drifts over minutes, as neighbours load the same cores.  The benchmark
times this kernel in the same process, next to the operations it measures, and
scales every measured time by ``NOMINAL_S / reference time``: the result reads
as seconds on a machine that runs the kernel in ``NOMINAL_S``.  The kernel
uses the interpreter the way lemnichor does (float arithmetic, ``math``
calls, small frozen dataclasses, method calls, formatting to text) and none
of lemnichor's code, so a change to the program moves the measured times and
never the reference.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

# Median time of run() on the 2-vCPU Intel Xeon VM (Python 3.11) this
# benchmark was written on.  Only the ratio matters; it is fixed so that
# normalised values stay comparable across commits.
NOMINAL_S = 1.5e-3
ITERATIONS = 400
# Runs averaged by sample(), which times the kernel right after set-up.
SAMPLE_RUNS = 40


@dataclass(frozen=True)
class _V:
    x: float
    y: float

    def __add__(self, other: "_V") -> "_V":
        return _V(self.x + other.x, self.y + other.y)

    def cross(self, other: "_V") -> float:
        return self.x * other.y - self.y * other.x


def run() -> int:
    p = _V(0.0, 0.0)
    acc = 0.0
    text = []
    for i in range(ITERATIONS):
        a = 0.01 * i
        q = _V(math.sin(a), math.cos(a) / (1.0 + a * a))
        p = p + q
        acc += p.cross(q) + math.hypot(p.x, p.y)
        if i % 4 == 0:
            text.append(f"{acc:.17g},{p.x:.17g}")
    return len(",".join(text))


def timed() -> float:
    """Seconds taken by one run of the kernel."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def sample() -> float:
    """Mean time of SAMPLE_RUNS consecutive runs."""
    return sum(timed() for _ in range(SAMPLE_RUNS)) / SAMPLE_RUNS
