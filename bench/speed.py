"""Correction of measured times for the drift of a shared machine's speed.

On a shared machine a single-threaded process runs up to several times
slower for seconds at a time while neighbours load the same cores and
caches.  The drift is common to everything the process runs: on the 2-core
machine this benchmark was defined on, one-second medians of fig2 or
estimate call times and of the fixed kernel below correlated at 0.95 to
0.99, with log-log slopes between 0.7 and 1.5.  The kernel runs once before
the first call and after every call, outside the calls' timing.  Each call's
latency, and each set-up probe's time, is scaled by ``NOMINAL_S`` over the
mean of the kernel times just before and just after it.  The benchmark
pins itself and its set-up probes to one CPU so that the kernel runs on the
core the timed work runs on: unpinned, a probe's time and the kernel's
correlated at 0.16, pinned at 0.75.  The correction removes most of the
drift but not a change in the program, which leaves the kernel's time
alone.  bench/README.md records, per workload, the spread of the raw and the
corrected figures over runs with different seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Kernel time the corrected latencies are scaled to: its typical time between
# calls on the machine the benchmark was defined on, so corrected values stay
# close to wall-clock times there.
NOMINAL_S = 0.8e-3


@dataclass(frozen=True)
class _Peak:
    height: float
    index: int


class Reference:
    """A fixed kernel mixing the two cost profiles of the workloads.

    A Python loop of small numpy calls and record objects, like a sweep trial,
    and a 512 x 512 complex matrix-vector product (4 MB), like the integer
    stage on a capture.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._n = np.arange(128)
        self._chirp = np.exp(1j * np.pi * 2 * self._n * self._n / 128)
        self._matrix = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        self._vector = np.ones(512, dtype=np.complex128)

    def time(self) -> float:
        """Run the kernel twice; return the duration of the second run in seconds.

        The untimed first run loads the kernel's code and data into the
        caches, so its timed run does not depend on what the call before it
        left there.
        """
        self._run()
        t0 = perf_counter()
        self._run()
        return perf_counter() - t0

    def _run(self) -> float:
        acc = 0.0
        for k in range(4):
            rng = np.random.default_rng([7, k])
            taps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = np.convolve(taps, self._chirp)[:128] * np.exp(2j * np.pi * k * self._n / 128)
            y = y + 0.1 * (rng.standard_normal(128) + 1j * rng.standard_normal(128))
            z = np.abs(np.fft.fft(y))
            peak = _Peak(float(z.max()), int(np.argmax(z)))
            acc += peak.height + math.atan2(1.0, peak.index + 1)
        return acc + abs(complex((self._matrix @ self._vector)[0]))


def speed_scale(kernel_times: np.ndarray) -> np.ndarray:
    """Factor for call i: NOMINAL_S over the mean of kernel times i and i + 1.

    ``kernel_times`` has one more entry than there are calls: the kernel run
    before the first call, then one after each call.
    """
    kernel_times = np.asarray(kernel_times, dtype=np.float64)
    return NOMINAL_S / ((kernel_times[:-1] + kernel_times[1:]) / 2.0)
