"""Timing statistics and machine-speed calibration for the benchmark."""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import statistics
import time


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, but not
    below the upper quartile.

    Returns (value, percentile, sample count). Among n sorted samples the
    one at index n - 11 has exactly ten samples above it and sits at
    percentile 100 * (n - 10) / n. Below forty samples that percentile
    would fall under 75, and the upper quartile, the sample at index
    ceil(0.75 n) - 1, is returned instead: the maximum of a dozen
    operations lasting seconds each measures the machine's worst moment
    more than the program.
    """
    if not samples:
        raise ValueError("tail of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n < 40:
        return ordered[math.ceil(0.75 * n) - 1], 75.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over the median) of run-level values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


# Median Calibration kernel time on the machine the baseline was recorded
# on: a shared 2-vCPU x86-64 KVM guest at 2.0 GHz, Python 3.11, numpy 2.4
# with OpenBLAS 0.3.31, one BLAS thread.
REFERENCE_KERNEL_S = 0.0012

# How strongly the program's time follows the kernel's. On the machine
# above the kernel takes about 1.0 ms, or about 2.0 ms while the host is
# contended (with no steal time: the process keeps its CPU). Over the same
# stretches, timed by the kernel running inside them, the program's
# operations slow by only 1.5-1.7 times, 2.0 ** 0.6 to 2.0 ** 0.75. Over
# 5-10 seeds per workload, the spread of the run medians was least at
# exponents between 0.5 and 0.8; 0.7 is within that on all three.
SPEED_EXPONENT = 0.7


class Calibration:
    """A fixed computation timed during a run, to correct for the
    machine's speed.

    A shared machine's speed drifts by up to a factor of two over seconds
    to minutes, and every timing of a run drifts with it. Multiplying an
    operation's wall time by REFERENCE_KERNEL_S over the median kernel time
    measured around it, raised to SPEED_EXPONENT, gives its time at
    reference speed. The kernel runs for a tenth of the time: between
    operations, and inside an operation from a timer signal
    (``sampling``), because the speed changes within the seconds one
    training operation lasts. It does the kind of work
    the program does: a GRU forward and backward sweep of one sequence,
    written as a Python loop of small numpy operations, and Python-level
    parsing of numeric text. It is the benchmark's own code, so a change to
    the program does not change it.
    """

    MIN_REPS = 3
    WINDOW_S = 0.25
    EVERY_S = 0.05  # run once this much time has passed since the last run,
    SHARE = 0.1  # for this share of that time

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._w = rng.normal(size=(16, 96)) * 0.2
        self._u = rng.normal(size=(32, 96)) * 0.2
        self._x = rng.normal(size=(20, 16))
        self._text = "\n".join(
            " ".join(str(v) for v in row) for row in rng.integers(0, 9000, (30, 7))
        )
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.spent = 0.0  # seconds spent in run(), to subtract from timings
        self._last = time.perf_counter()

    def _sigmoid(self, x):
        np = self._np
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def _kernel(self) -> float:
        np, w, u, h = self._np, self._w, self._u, 32
        state = np.zeros(h)
        caches = []
        for x in self._x:
            gx = x @ w
            z = self._sigmoid(gx[:h] + state @ u[:, :h])
            r = self._sigmoid(gx[h:2 * h] + state @ u[:, h:2 * h])
            hbar = np.tanh(gx[2 * h:] + (r * state) @ u[:, 2 * h:])
            caches.append((x, state, z, r, hbar))
            state = (1.0 - z) * state + z * hbar
        grad_w = np.zeros_like(w)
        dh = np.full(h, 0.01)
        for x, prev, z, r, hbar in reversed(caches):
            da_c = dh * z * (1.0 - hbar * hbar)
            da_z = dh * (hbar - prev) * z * (1.0 - z)
            da_r = (da_c @ u[:, 2 * h:].T) * prev * r * (1.0 - r)
            da = np.concatenate([da_z, da_r, da_c])
            grad_w += np.outer(x, da)
            dh = dh * (1.0 - z) + da @ u.T
        parsed = [[float(t) for t in line.split()] for line in self._text.splitlines()]
        return float(grad_w[0, 0]) + parsed[0][0]

    def run(self, budget_s: float) -> None:
        """Time the kernel repeatedly for about `budget_s`, at least
        MIN_REPS times, with the garbage collector paused so that the
        program's heap is not collected inside a timing."""
        entered = time.perf_counter()
        deadline = entered + budget_s
        reps = 0
        collecting = gc.isenabled()
        gc.disable()
        try:
            while reps < self.MIN_REPS or time.perf_counter() < deadline:
                started = time.perf_counter()
                self._kernel()
                ended = time.perf_counter()
                self.samples.append(((started + ended) / 2, ended - started))
                reps += 1
        finally:
            if collecting:
                gc.enable()
            self.spent += time.perf_counter() - entered

    def maybe_run(self) -> None:
        """Run for SHARE of the time since the last run, if EVERY_S has passed."""
        started = time.perf_counter()
        since = started - self._last
        if since >= self.EVERY_S:
            self.run(self.SHARE * since)
            self._last = time.perf_counter()

    @contextlib.contextmanager
    def sampling(self):
        """Call maybe_run from a SIGALRM timer every 2 * EVERY_S while the
        body runs. The signal handler runs between two bytecodes of the
        body, so the body's code is not changed; its time must be taken
        net of the growth of ``spent``."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.maybe_run())
        signal.setitimer(signal.ITIMER_REAL, 2 * self.EVERY_S, 2 * self.EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def at(self, start: float, end: float) -> float:
        """Median kernel time within WINDOW_S of [start, end], or of the
        nine samples nearest to it when the window holds fewer than three."""
        near = [d for mid, d in self.samples
                if start - self.WINDOW_S <= mid <= end + self.WINDOW_S]
        if len(near) < self.MIN_REPS:
            centre = (start + end) / 2
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - centre))[:9]]
        return statistics.median(near)

    def factor(self, start: float, end: float) -> float:
        """What a time measured during [start, end] is multiplied by to
        give the time at reference speed."""
        return self.factor_of(self.at(start, end))

    def factor_of(self, kernel_s: float) -> float:
        """The factor for a time measured while the kernel took `kernel_s`."""
        return (REFERENCE_KERNEL_S / kernel_s) ** SPEED_EXPONENT


def import_child() -> None:
    """Body of a fresh interpreter that times the import of numpy and
    pendetect.cli.

    Prints the import's wall seconds and the median calibration kernel time
    measured right after the import in the same process, so that it
    measures the core and the moment the import ran on, which the parent's
    calibration may not.
    """
    started = time.perf_counter()
    import numpy  # noqa: F401
    import pendetect.cli  # noqa: F401

    seconds = time.perf_counter() - started
    cal = Calibration()
    cal.run(2 * Calibration.EVERY_S)
    print(seconds, statistics.median(d for _, d in cal.samples))
