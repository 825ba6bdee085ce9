"""Timing and failure accounting shared by every workload.

A :class:`Ledger` runs each operation, times it and counts it as
attempted and, when it raises or fails its output check, as failed. A
:class:`HostSpeed` rescales the measured times to a reference host
speed, and :class:`Samples` keeps each operation's times over a run.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
from typing import Any, Callable

import numpy as np


class Ledger:
    """Operations attempted and failed; each failure is described on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(
        self, what: str, fn: Callable[[], Any], check: Callable[[Any], str | None]
    ) -> tuple[Any, float] | None:
        """Run ``fn`` once and time it, then ``check`` its result. Returns
        ``(result, seconds)`` once ``fn`` has returned, even when the check
        named a problem (the failure is counted either way), so a run whose
        outputs are wrong still reports its times; None when ``fn`` raised."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - start
        except Exception as exc:  # counted as a failed operation, never fatal
            self._fail(what, f"raised {exc!r}")
            return None
        try:
            problem = check(result)
        except Exception as exc:  # a check that cannot run is a failed check
            problem = f"check raised {exc!r}"
        if problem is not None:
            self._fail(what, problem)
        return result, seconds

    def _fail(self, what: str, problem: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {problem}", file=sys.stderr)


class NoSamples(RuntimeError):
    """Every attempt of an operation raised, so a metric has no sample."""


def median_of(values: list[float], what: str) -> float:
    if not values:
        raise NoSamples(what)
    return statistics.median(values)


@contextlib.contextmanager
def one_cpu():
    """Pin this process to one CPU while it times work in-process. The
    CPUs of a shared host can run at different speeds at the same moment,
    so the work and the calibration kernel that rescales it must share one.
    Child processes are never timed under it: a pinned interpreter imports
    numpy without its BLAS threads, which a user's run does not."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


# Seconds the calibration kernel takes on the host the benchmark was
# defined on (2 vCPUs, Python 3.11.7, numpy 2.4.6) at that host's faster
# CPU level. Timed work is reported at this speed.
CALIBRATION_REF_S = 1.5e-3


def _calibration_kernel() -> float:
    """Fixed interpreter-bound arithmetic and small-array numpy calls: the
    mix the package's hot paths run. Never touches the package."""
    acc = 0.0
    for i in range(9000):
        acc += (i * 1.0001) ** 0.5
    a = np.arange(64.0)
    for _ in range(600):
        a = np.sqrt(a * a + 1.0)
    return acc + float(a[0])


class HostSpeed:
    """Rescales wall times to the reference host speed.

    The CPU speed of a shared host switches between levels up to 1.7x
    apart every few seconds and drifts over minutes, so raw wall times
    of one workload differ by tens of percent between runs. A calibration
    kernel runs before and after each block of timed work (a grid cell, a
    CLI call, a calculus pass), on each CPU the process could use when the
    HostSpeed was made; the block's times are multiplied by
    ``CALIBRATION_REF_S`` over the mean of those kernel times.
    """

    def __init__(self, factors: list[float]) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.factors = factors  # every factor handed out, for the notes
        self.start()

    def _kernel_s(self) -> float:
        allowed = os.sched_getaffinity(0)
        total = 0.0
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                start = time.perf_counter()
                _calibration_kernel()
                total += time.perf_counter() - start
        finally:
            os.sched_setaffinity(0, allowed)
        return total / len(self.cpus)

    def start(self) -> None:
        """Open a block; call again after untimed work that took long."""
        self._before = self._kernel_s()

    def factor(self) -> float:
        """Close the block opened last and open the next one."""
        after = self._kernel_s()
        factor = CALIBRATION_REF_S / ((self._before + after) / 2.0)
        self._before = after
        self.factors.append(factor)
        return factor


class Samples:
    """Rescaled seconds of each operation over the rounds of one run."""

    def __init__(self, n: int, what: str) -> None:
        self.per_op: list[list[float]] = [[] for _ in range(n)]
        self.what = what

    def add(self, index: int, done: tuple[Any, float] | None, factor: float) -> None:
        if done is not None:
            self.per_op[index].append(done[1] * factor)

    def medians(self) -> np.ndarray:
        """Each operation's median; operations that always raised are left out."""
        medians = [statistics.median(s) for s in self.per_op if s]
        if not medians:
            raise NoSamples(self.what)
        return np.array(medians)

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.medians(), q)) * 1e3

    def total_s(self) -> float:
        return float(self.medians().sum())
