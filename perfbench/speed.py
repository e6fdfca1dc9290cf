"""Machine-speed reference for the benchmark's timings.

The shared 2-vCPU VM the benchmark was tuned on changes speed by up to ±30%
over minutes and by ±20% from one second to the next (the same query took
130–300 ms within one minute; CPU time moved alike, with no steal). A fixed
kernel timed beside the workload tracks that speed.

Timings are therefore reported at reference speed: raw time × REFERENCE_MS /
kernel time measured in the same process around the same moment. The kernel
does not call the package, so a change to the program cannot move it; it
mixes numpy passes over a few thousand points with a pure-Python loop, as
the package's hot paths do.

During the timed loop, `SpeedTrace` runs the kernel from a SIGALRM handler
every INTERVAL_S seconds, so samples fall inside operations too (a 12 s
training chain gets ~45 of them). The handler's time is left out of the
operation times, and each stretch of work between two samples is scaled by
the median kernel time of the samples nearest to it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# median kernel time on a 2-vCPU Intel Xeon VM at 2.1 GHz, numpy 2.4.6
REFERENCE_MS = 8.0
INTERVAL_S = 0.25   # kernel period inside the timed loop
NEIGHBOURS = 3      # samples on each side of a stretch that set its speed

_rng = np.random.default_rng(0)
_POINTS = _rng.random((2368, 2))
_POLYGON = _rng.random((20, 2))


def kernel_ms() -> float:
    """Run the reference kernel once and return its wall time in ms."""
    t = time.perf_counter()
    x, y = _POINTS[:, 0], _POINTS[:, 1]
    inside = np.zeros(len(x), dtype=bool)
    for _ in range(12):
        for k in range(len(_POLYGON)):
            x1, y1 = _POLYGON[k]
            x2, y2 = _POLYGON[(k + 1) % len(_POLYGON)]
            cond = (y1 > y) != (y2 > y)
            inside ^= cond & (x < x1 + (y - y1) * (x2 - x1) / (y2 - y1 + 1e-9))
    s = 0
    for i in range(30000):
        s += i
    return (time.perf_counter() - t) * 1000.0


def scale(samples: list[float]) -> float:
    """Factor converting times measured beside these kernel samples to
    reference speed."""
    return REFERENCE_MS / statistics.median(samples)


class SpeedTrace:
    """Kernel samples taken on a timer while the block runs.

    `now()` is a clock that stops while the kernel runs; `at_reference(a, b)`
    converts the work done between two readings of it to reference speed."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.starts: list[float] = []   # clock reading when each sample ran
        self.ms: list[float] = []
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.starts.append(t - self._paused)
        self.ms.append(kernel_ms())
        self._paused += time.perf_counter() - t

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _speed(self, t: float) -> float:
        """Reference factor at clock reading t: from the NEIGHBOURS samples
        on each side of t."""
        j = bisect.bisect_right(self.starts, t)
        return scale(self.ms[max(0, j - NEIGHBOURS):j + NEIGHBOURS])

    def at_reference(self, a: float, b: float) -> float:
        """Seconds of work between clock readings a < b, at reference speed."""
        if not self.ms:
            raise RuntimeError("no speed sample was taken")
        cuts = [a] + self.starts[bisect.bisect_right(self.starts, a):
                                 bisect.bisect_left(self.starts, b)] + [b]
        return sum((t1 - t0) * self._speed((t0 + t1) / 2.0)
                   for t0, t1 in zip(cuts, cuts[1:]))
