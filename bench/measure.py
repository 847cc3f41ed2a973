"""Timing primitives: per-operation deadlines, child processes, percentiles,
and the speed gauge that converts wall seconds into nominal seconds.

Everything runs in one thread.  A per-operation timeout is a SIGALRM timer
whose handler raises ``OpTimeout`` into the running operation, so an
in-process solve and a blocked ``wait4`` on a child are both interrupted at
the deadline and recorded as failed.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction


class OpTimeout(Exception):
    """An operation ran past its per-operation deadline."""


def _raise_timeout(signum, frame):
    raise OpTimeout("per-operation deadline passed")


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise ``OpTimeout`` inside the block once ``seconds`` have passed."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    max_rss_mb: float


def run_child(argv: list[str], env: dict, out_path: str, err_path: str) -> ChildResult:
    """Run a child to completion with stdout/stderr sent to files.

    ``wait4`` reaps it and reports that child's own peak RSS.  If the
    enclosing ``deadline`` fires, the child is killed and reaped before the
    timeout propagates, so no process outlives its operation."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    return ChildResult(os.waitstatus_to_exitcode(status), stdout, stderr, usage.ru_maxrss / 1024)


def percentile(values: list[float], q: float, width: float = 0.05) -> tuple[float, int]:
    """Smoothed nearest-rank percentile and the number of samples beyond its rank.

    The rank of the ``q``-th percentile is ``ceil(q * n)``; the estimate is
    the mean of the sorted values ranked within ``width * n`` of it.
    Operation costs come in clusters, and the bare order statistic jumped
    between neighbouring clusters from run to run."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(round(q * n, 9)))
    half = int(width * n)
    return statistics.fmean(ordered[max(0, rank - 1 - half) : rank + half]), n - rank


def min_samples(q: float, beyond: int) -> int:
    """Smallest sample count whose ``q``-th percentile has ``beyond`` samples after it."""
    n = 1
    while n - max(1, math.ceil(round(q * n, 9))) < beyond:
        n += 1
    return n


now = time.perf_counter

# Seconds the reference work takes on the nominal machine: this 2-vCPU VM
# (Intel Xeon, CPython 3.11.7) in its fast phases.
REFERENCE_S = 0.010


def reference_work() -> None:
    """Fixed exact-rational elimination, independent of the package: the same
    kind of Fraction arithmetic and object churn as an LP pivot."""
    for seed in range(15):
        m = [[Fraction((i * 7 + j * 3 + seed) % 11 + 1, (i + 2 * j + seed) % 5 + 1) for j in range(7)] for i in range(7)]
        for c in range(7):
            if m[c][c] == 0:
                continue
            for r in range(c + 1, 7):
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


class SpeedGauge:
    """Times the reference work about once a second through a run.

    The VM this benchmark was tuned on drifts in speed by up to 1.9x over
    minutes as its neighbours load the host; raw wall ``ops_per_s`` spread
    by up to 35 % over ten back-to-back runs.  ``factor()`` is ``REFERENCE_S``
    over the median of all samples; a wall time measured in the run times
    that factor is in nominal seconds."""

    def __init__(self, interval: float = 1.0):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def sample(self) -> None:
        start = now()
        reference_work()
        self.samples.append((start, now() - start))

    def tick(self) -> None:
        """Sample if the last sample is more than ``interval`` old."""
        if not self.samples or now() - self.samples[-1][0] >= self.interval:
            self.sample()

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(seconds for _, seconds in self.samples)
