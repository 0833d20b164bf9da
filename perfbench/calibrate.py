"""Op timing corrected for the host's speed, by a reference measurement.

On a shared host the CPU speed swings between a fast state and one up to
twice as slow, for seconds to minutes at a time, and those swings reach
every op the same way.  A run therefore also times a fixed reference at op
boundaries, at most every ``every_s`` seconds of op time, and scales each
op's time by ``nominal_s`` over the mean of the two reference timings that
bracket it: the result is the op's time at the speed under which the
reference takes ``nominal_s``.  The reference never runs inside an op and
its own time is left out of every figure.

Contention does not slow every kind of work alike: while exact
``Fraction`` arithmetic ran 1.8 times slower, a plain integer loop could
run only 1.1 times slower, and a process spawn 1.2 times.  So each workload
is scaled by a reference made of the kinds of work its ops do:

* ``fraction_reference``: a sum of exact ``Fraction``s, the work of theta
  evaluation, the series and the verify checks.
* ``mixed_reference``: that sum followed by an integer loop shaped like the
  closest-vector descent's inner loop, each about half the time; the work
  of library requests, whose far points spend their time in the descent.
* ``spawn_reference``: one bare ``python -c pass``, for spawned processes,
  which spend their time in process start, file reads and page faults.

The in-process references are the median of ``REPEATS`` timings.  The
nominal times are constants, each reference's time at full speed on a
2-vCPU x86-64 VM with Python 3.11.7, so the figures stay in seconds and do
not depend on how fast the host happened to be during the run.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

FRACTION_NOMINAL_S = 200e-6
MIXED_NOMINAL_S = 420e-6
SPAWN_NOMINAL_S = 40e-3
REPEATS = 5

clock = time.perf_counter


def fraction_kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(1, i)
    return total


def integer_kernel() -> int:
    """Unit steps while a linear form exceeds a bound, as in the descent."""
    t0, t1, steps = 19600, 0, 0
    while 2 * (t0 * 3 - t1) > 35:
        t0 -= 7
        t1 += 7
        steps += 1
    return steps


def _median_time(kernels) -> float:
    times = []
    for _ in range(REPEATS):
        start = clock()
        for kernel in kernels:
            kernel()
        times.append(clock() - start)
    return statistics.median(times)


def fraction_reference() -> float:
    return _median_time((fraction_kernel,))


def mixed_reference() -> float:
    return _median_time((fraction_kernel, integer_kernel))


def spawn_reference(env: dict, cwd) -> float:
    """The time of one bare interpreter spawn."""
    start = clock()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, capture_output=True, timeout=60)
    return clock() - start


class Calibrator:
    """Records ops and reference timings in one batch, then scales the ops.

    ``begin`` times the reference once, just before the batch's clock
    starts; ``op`` records one op's raw time, and times the reference once
    ``every_s`` of op time has passed since it last ran; ``end`` times it
    once more, after the batch's clock stopped, and returns the scaled op
    times and batch time.
    """

    def __init__(self, reference=fraction_reference, nominal_s=FRACTION_NOMINAL_S, every_s=0.025):
        self.reference = reference
        self.nominal_s = nominal_s
        self.every_s = every_s

    def begin(self) -> None:
        self.refs = [self.reference()]
        self.ops: list[tuple[int, float]] = []
        self.ref_s = 0.0
        self.since = 0.0

    def _measure(self) -> None:
        start = clock()
        self.refs.append(self.reference())
        self.ref_s += clock() - start
        self.since = 0.0

    def op(self, seconds: float) -> None:
        """Record an op that took ``seconds``; call between ops, never inside one."""
        self.ops.append((len(self.refs) - 1, seconds))
        self.since += seconds
        if self.since >= self.every_s:
            self._measure()

    def end(self, wall_s: float) -> tuple[list[float], float]:
        """Scaled op times and scaled batch time.

        ``wall_s`` is the batch's raw time, reference runs inside it
        included; the time spent outside the ops is scaled by the batch's
        median reference timing.
        """
        outside = max(wall_s - self.ref_s - sum(t for _, t in self.ops), 0.0)
        if self.since > 0.0 or len(self.refs) == 1:
            self._measure()
        scaled = [
            t * self.nominal_s * 2.0 / (self.refs[i] + self.refs[i + 1]) for i, t in self.ops
        ]
        return scaled, sum(scaled) + outside * self.nominal_s / statistics.median(self.refs)

    def slowness(self) -> float:
        """How slow the host ran in the batch: median reference time over nominal."""
        return statistics.median(self.refs) / self.nominal_s
