"""Reference-speed probe.

On a host that shares its cores with other jobs, the speed of pure-Python
code drifts by tens of percent over minutes. The probe times a fixed
pure-Python kernel (small object construction, attribute and dict access,
float arithmetic: the kind of work benchtop does) so that a run's timings
can be scaled to a fixed reference speed. A run takes the median of all its
probes: one probe lasts a few milliseconds and jitters by a factor of two,
but the median of a run's many probes follows the drift between runs. The
kernel never changes, so a change to benchtop cannot move it.
"""

from __future__ import annotations

import math
import time

# About the kernel's time on the reference host (README.md) when it runs
# fast; it sets the scale of the scaled figures, nothing else.
REFERENCE_S = 0.005
REPEATS = 2


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        self.x, self.y, self.z = x, y, z


def _kernel(n: int = 4000) -> float:
    acc = 0.0
    table = {}
    for i in range(n):
        p = _Point(i * 0.5, -i * 0.25, 1.0)
        q = (p.x - 1.0, p.y + 2.0, p.z)
        acc += math.sqrt(q[0] * q[0] + q[1] * q[1]) / (1.0 + abs(q[2]))
        table[i & 1023] = q
        if isinstance(table.get(i & 511), tuple):
            acc -= 1e-9
    return acc


def reference_seconds(seconds: float, probe_s: float) -> float:
    """``seconds`` of CPU-bound work at the reference speed, given the
    probe's time ``probe_s`` while it ran."""
    return seconds * REFERENCE_S / probe_s


def probe() -> float:
    """The kernel's best time over a few runs, in seconds."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
