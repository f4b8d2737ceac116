"""CPU speed sampler: rescales measured seconds to a reference speed.

The benchmark machine shares its cores with other tenants, and the speed
of the same single-threaded Python code drifts by a quarter or more over
seconds to minutes. A timer signal therefore interrupts the measured
code every ``interval`` seconds and times a fixed pure-Python kernel.
The kernel's time at that moment against ``REFERENCE_S``, its time on
a quiet machine, is the machine's current speed. The measured interval,
minus the time spent in the kernel, is multiplied by the mean of those
speeds. The result reads as seconds on the quiet machine, and it no
longer moves with the drift.

The kernel allocates no container objects, so it never starts a garbage
collection of the measured program's objects.
"""

from __future__ import annotations

import signal
import statistics
import time

KERNEL_ROUNDS = 300
# Seconds one kernel call takes, interleaved with the measured program,
# when the machine is quiet (Python 3.11 on the 2-core benchmark
# machine). Any fixed value works; this one makes rescaled times read
# close to the wall seconds of an uncontended run.
REFERENCE_S = 1.4e-4


class _Box:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi

    def width(self) -> float:
        return self.hi - self.lo


_BOXES = [_Box(-0.5 * i, 0.25 * i + 1.0) for i in range(8)]
_ENV = {"x1": 0.5, "x2": -0.25, "t": 0.0}


def kernel(rounds: int = KERNEL_ROUNDS) -> float:
    acc = 0.0
    boxes, env = _BOXES, _ENV
    for i in range(rounds):
        b = boxes[i & 7]
        x = env["x1"] * i - env["x2"]
        acc += max(b.lo * x, b.hi * x) + min(b.lo, x) + b.width()
    return acc


class Sampler:
    """Context manager that samples the machine's speed while it is open.

    After it closes, ``scale(seconds)`` rescales a duration measured
    inside it to the reference speed.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.samples: list[float] = []
        self.kernel_seconds = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.kernel_seconds += dt

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean speed relative to the reference; 1.0 means a quiet machine."""
        if not self.samples:
            # Shorter than one interval: time one kernel call now.
            self._sample(None, None)
            self.kernel_seconds -= self.samples[-1]
        return statistics.fmean(REFERENCE_S / s for s in self.samples)

    def scale(self, seconds: float) -> float:
        """``seconds`` minus kernel time, at the reference speed."""
        return (seconds - self.kernel_seconds) * self.speed()
