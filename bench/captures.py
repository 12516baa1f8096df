"""Synthetic IQ captures for the ``capture_estimate`` workload.

The captures are built here from the signal model itself (chirp formula,
Rayleigh taps, a frame-continuous CFO ramp and AWGN), not with
``cfolab.transmit``, so two commits that change the channel code still read
byte-identical inputs for the same seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

N_FFT = 1024
RATE_1 = 2
RATE_2 = 8
CP_LEN = 16
PATHS = 4
DECAY = 2.0
SNR_DB = 15.0
# Offsets are drawn uniformly from (-MAX_CFO, MAX_CFO), well inside the
# integer stage's (-N/2, N/2] range.
MAX_CFO = N_FFT / 4


def _chirp(rate: int) -> np.ndarray:
    n = np.arange(N_FFT)
    return np.exp(1j * np.pi * rate * n * n / N_FFT)


def _frame() -> np.ndarray:
    """CP + chirp(rate 1), then CP + chirp(rate 2)."""
    blocks = []
    for rate in (RATE_1, RATE_2):
        x = _chirp(rate)
        blocks += [x[N_FFT - CP_LEN :], x]
    return np.concatenate(blocks)


def _taps(rng: np.random.Generator) -> np.ndarray:
    """Rayleigh taps with an exponential delay profile, unit mean total power."""
    power = np.exp(-np.arange(PATHS) / DECAY)
    power /= power.sum()
    return np.sqrt(power / 2) * (rng.standard_normal(PATHS) + 1j * rng.standard_normal(PATHS))


class CaptureSource:
    """Deterministic stream of captures: capture i depends only on (seed, i)."""

    def __init__(self, seed: int):
        self.seed = seed
        self._frame = _frame()
        self._ramp_n = np.arange(self._frame.size) / N_FFT

    def make(self, index: int) -> tuple[np.ndarray, float]:
        """Return (received stream, true offset) for capture ``index``.

        Each CP-prefixed symbol sees its own taps (varying block fading), the
        offset rotates the whole frame with one running sample index, and a
        common phase and complex AWGN at SNR_DB are applied last.
        """
        rng = np.random.default_rng([self.seed, index])
        cfo = float(rng.uniform(-MAX_CFO, MAX_CFO))
        blk = N_FFT + CP_LEN
        rx = np.empty(self._frame.size, dtype=np.complex128)
        for s in range(2):
            block = self._frame[s * blk : (s + 1) * blk]
            rx[s * blk : (s + 1) * blk] = np.convolve(_taps(rng), block)[:blk]
        phase_0 = rng.uniform(0.0, 2.0 * np.pi)
        rx *= np.exp(1j * (2.0 * np.pi * cfo * self._ramp_n + phase_0))
        sigma = np.sqrt(10.0 ** (-SNR_DB / 10.0) / 2.0)
        rx += sigma * (rng.standard_normal(rx.size) + 1j * rng.standard_normal(rx.size))
        return rx, cfo

    def write(self, index: int, path: Path) -> float:
        """Write capture ``index`` as interleaved little-endian float32 I/Q; return its offset."""
        rx, cfo = self.make(index)
        rx.astype("<c8").tofile(str(path))
        return cfo
