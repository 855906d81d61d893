"""Machine-speed reference: fixed kernels of the benchmark's own, timed beside the workload.

The guests this benchmark runs on change speed by up to 1.6x in phases of
seconds to minutes, because other tenants share the physical cores.  Process
CPU time slows exactly as wall time does (steal time is about 3 %), so no
clock of the process can see it.  Instead, a :class:`SpeedClock` times small
reference kernels during every timed interval: a ``SIGALRM`` timer runs them
every ``PERIOD_S`` seconds in the main thread, and one run right before and
one right after each interval, outside it.  The time spent in the timer's
handler is taken out of the interval.

An interval's *scaled* time is its wall time times ``NOMINAL_S[k] / r``,
where ``r`` is the trimmed mean time of kernel ``k`` over the interval's
samples: the time the interval would have taken at the speed at which ``k``
runs in ``NOMINAL_S[k]``.  Each workload names the kernel whose kind of work is
closest to its own (see ``workloads.py``).  None of the kernels calls
``portdim``, so a change to the package moves the scaled time as it moves
the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: seconds between two samples of the reference kernels inside an interval
PERIOD_S = 0.2

class _Interp:
    """Interpreter-bound: small numpy calls, a small solve, a sort and a dict."""

    def __init__(self, rng: np.random.Generator):
        self.m = rng.random((12, 12)) + 3.0 * np.eye(12)
        self.v = rng.random(12)
        self.items = [(i * 7919 % 10007, str(i)) for i in range(2500)]

    def __call__(self) -> None:
        for i in range(200):
            x = self.m @ self.v
            y = np.maximum(x - self.v, 0.0)
            float(np.dot(y, self.v))
            if i % 20 == 0:
                np.linalg.solve(self.m, self.v)
        table = {}
        for key, name in sorted(self.items):
            table[name] = key


class _Stream:
    """Memory-bound: element-wise passes over two 8 MB arrays."""

    def __init__(self, rng: np.random.Generator):
        self.a = rng.random(1_000_000)
        self.b = rng.random(1_000_000)

    def __call__(self) -> None:
        for _ in range(2):
            np.add(self.a, self.b, out=self.a)
            np.subtract(self.a, self.b, out=self.a)


class _Blas:
    """Matrix products of the shape of the Langevin step's M4 product."""

    def __init__(self, rng: np.random.Generator):
        self.rows = rng.random((256, 225))
        self.square = rng.random((225, 225))

    def __call__(self) -> None:
        np.einsum("pq,pq->p", self.rows @ self.square, self.rows)


KERNELS = {"interp": _Interp, "stream": _Stream, "blas": _Blas}

#: median time of each kernel, rounded, over runs of all four workloads on the
#: machine the benchmark was written on (see NOTES.md); scaled times read in
#: seconds at that speed
NOMINAL_S = {"interp": 2.4e-3, "stream": 4.2e-3, "blas": 1.07e-3}


@dataclass
class Interval:
    """One timed interval: wall time, and the kernel samples taken around it."""

    wall_s: float = 0.0
    samples: dict[str, list[float]] = field(default_factory=dict)

    def reference_s(self, kernel: str) -> float:
        """Mean kernel time, without the tenth of samples at either end.

        A mean, because the interval's wall time adds up the slowdown over
        the whole interval; trimmed, because a sample can be hit by an
        interrupt or a page fault that the interval does not see.
        """
        times = sorted(self.samples[kernel])
        cut = len(times) // 10
        return statistics.fmean(times[cut : len(times) - cut])

    def scaled_s(self, kernel: str) -> float:
        return self.wall_s * NOMINAL_S[kernel] / self.reference_s(kernel)


class SpeedClock:
    """Times intervals and samples the reference kernels during them.

    Use as a context manager; the timer runs only inside it.  With
    ``period=0`` no timer is set, and only the samples right before and
    after each interval are taken (for traced runs, whose spans the handler
    would otherwise lengthen).
    """

    def __init__(self, kernels: tuple[str, ...], period: float = PERIOD_S):
        self.kernels = {name: KERNELS[name](np.random.default_rng(0)) for name in kernels}
        self.period = period
        self._samples: list[dict[str, float]] = []
        self._handler_s = 0.0
        self._busy = False
        self._previous = None

    def _sample(self) -> dict[str, float]:
        self._busy = True
        try:
            times = {}
            for name, kernel in self.kernels.items():
                start = time.perf_counter()
                kernel()
                times[name] = time.perf_counter() - start
            return times
        finally:
            self._busy = False

    def _on_tick(self, signum, frame) -> None:
        if self._busy:
            return
        start = time.perf_counter()
        self._samples.append(self._sample())
        self._handler_s += time.perf_counter() - start

    def __enter__(self) -> SpeedClock:
        for kernel in self.kernels.values():  # first calls pay for page faults
            kernel()
        if self.period > 0:
            self._previous = signal.signal(signal.SIGALRM, self._on_tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        if self.period > 0:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def interval(self):
        """Time the ``with`` body; the yielded :class:`Interval` is filled on exit."""
        iv = Interval()
        before = self._sample()
        mark, handler_s = len(self._samples), self._handler_s
        start = time.perf_counter()
        try:
            yield iv
        finally:
            iv.wall_s = time.perf_counter() - start - (self._handler_s - handler_s)
            taken = [before, *self._samples[mark:], self._sample()]
            iv.samples = {k: [s[k] for s in taken] for k in self.kernels}
