"""Timings scaled to a reference host speed.

A shared host runs this benchmark's code at a speed that changes by up to
half within seconds and drifts for minutes at a time, and CPU time slows as
much as wall time; neither a run's median nor its fastest pass then repeats
from run to run.  So a fixed calibration kernel is timed right before and
right after every timed interval, and the interval is scaled to the speed
at which the kernel takes REFERENCE_S:

    scaled = seconds * REFERENCE_S / mean(kernel before, kernel after)

The kernel runs in the benchmark's process.  It reads the speed of the
program's children as well only because run.py pins the benchmark, and so
every child, to one CPU; unpinned, a child can run on a CPU of another
speed.

The kernel mixes what the program spends its time on: a Python loop over
small numpy eigh, matrix products and norms, a batched eigh and float-to-text
formatting.  It is the benchmark's own code and imports nothing of the
program, so no change to the program moves it.  Its numpy functions are
bound at import, so a traced pass, which wraps numpy.linalg's attributes,
does not count the kernel's calls.
"""

import contextlib
import dataclasses
import time

import numpy as np
from numpy.linalg import eigh, norm

REFERENCE_S = 0.06  # kernel seconds at the reference speed
FRESH_S = 0.05  # an older reading is taken again before an interval
LOOP_STEPS = 1200
BATCH = 3000


def _hamiltonian():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return a + a.conj().T


H = _hamiltonian()
H_BATCH = H * (1.0 + 1e-4 * np.arange(BATCH))[:, None, None]


def kernel_seconds():
    """Seconds the calibration kernel takes now."""
    start = time.perf_counter()
    u = np.eye(4, dtype=np.complex128)
    rows = []
    for k in range(LOOP_STEPS):
        w, v = eigh(H * (1.0 + 1e-4 * k))
        u = (v * np.exp(-1e-3j * w)) @ v.conj().T @ u
        rows.append(f"{k},{w[0]:.17g},{norm(u):.17g}")
    w = eigh(H_BATCH)[0]
    text = "\n".join(rows) + "\n".join(f"{x:.17g}" for x in w[:, 0])
    if not text:  # keeps the formatting from being optimised away
        raise AssertionError
    return time.perf_counter() - start


@dataclasses.dataclass
class Interval:
    """One timed interval.  `seconds` is what it measured: its own length
    unless the caller sets a time it measured inside it."""

    start: float
    end: float = 0.0
    seconds: float = None
    factor: float = 1.0


class Clock:
    """Times intervals and scales each by the kernel readings around it.

    Back-to-back intervals share the reading between them.  With
    kernel=None no kernel runs and times are left as measured.
    """

    def __init__(self, kernel=kernel_seconds):
        self.kernel = kernel
        self.readings = []  # (perf_counter at its start, kernel seconds)
        self._last = None  # (kernel seconds, perf_counter when it ended)
        if kernel:
            kernel()  # the first run warms caches; not a reading

    def _read(self):
        start = time.perf_counter()
        seconds = self.kernel()
        self.readings.append((start, seconds))
        self._last = (seconds, time.perf_counter())
        return seconds

    @contextlib.contextmanager
    def interval(self):
        if self.kernel and (self._last is None or
                            time.perf_counter() - self._last[1] > FRESH_S):
            self._read()
        span = Interval(time.perf_counter())
        yield span
        span.end = time.perf_counter()
        if span.seconds is None:
            span.seconds = span.end - span.start
        if self.kernel:
            before = self._last[0]
            span.factor = REFERENCE_S / ((before + self._read()) / 2.0)

    @staticmethod
    def scaled(intervals):
        """The intervals' seconds summed at the reference speed."""
        return sum(i.seconds * i.factor for i in intervals)
