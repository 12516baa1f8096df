"""Chirp preamble sequences, unitary transforms, and frame assembly.

The preamble is built from quadratic-phase chirps x(n) = exp(j*pi*rate*n^2/N).
With an even rate that divides N, the sequence is unit-modulus, periodic with
period N/rate, and its periodic autocorrelation vanishes at every lag that is
not a multiple of that period.  Two such sequences with different rates,
each behind a cyclic prefix, form the two-symbol synchronization preamble.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


# Largest FFT size a preamble may have; the paper's are 64 and 128.  At 2**16
# a two-trial fig2 sweep takes about 2 s and 111 MB (2 cores, numpy 2.4.6).
MAX_N_FFT = 2**16


def _check_chirp(n_fft: int, rate: int) -> None:
    """Raise ConfigError unless rate is a chirp rate of an n_fft-sample symbol.

    n_fft must be a power of two of at most MAX_N_FFT.  rate must be even,
    divide n_fft, and be at most n_fft/2 so the chirp period, n_fft // rate
    samples, is even.  The even period is what makes the sequence exactly
    periodic mod N and keeps the circular-shift algebra of the frequency
    comb exact.
    """
    if not _is_power_of_two(n_fft):
        raise ConfigError(f"n_fft must be a power of two, got {n_fft}")
    if n_fft > MAX_N_FFT:
        raise ConfigError(f"n_fft must be at most {MAX_N_FFT}, got {n_fft}")
    if rate <= 0 or n_fft % rate != 0:
        raise ConfigError(f"rate must be a positive divisor of n_fft, got rate={rate} n_fft={n_fft}")
    if rate % 2 != 0:
        raise ConfigError(f"rate must be even, got {rate}")
    if (n_fft // rate) % 2 != 0:
        raise ConfigError(f"rate must be at most n_fft/2 (chirp period must be even), got rate={rate}")


@dataclass(frozen=True)
class PreambleSpec:
    """Two chirp symbols of n_fft samples, at rates r1 and r2, each behind a cp_len-sample cyclic prefix.

    Both rates pass _check_chirp and 0 <= cp_len <= n_fft.  The first
    (low-rate) symbol drives the fractional stage, both drive the integer
    stage.  The dechirp pair and the frame are built on first read, once
    per spec, and refuse a write.
    """

    n_fft: int
    r1: int
    r2: int
    cp_len: int

    def __post_init__(self) -> None:
        _check_chirp(self.n_fft, self.r1)
        _check_chirp(self.n_fft, self.r2)
        _check_cp(self.cp_len, self.n_fft)

    @property
    def frame_len(self) -> int:
        """Total frame length: two CP-prefixed symbols."""
        return 2 * (self.n_fft + self.cp_len)

    @cached_property
    def dechirp(self) -> np.ndarray:
        """The receiver's read-only (2, N) conjugate chirp pair."""
        x = np.conj(np.stack([cazac_generate(self.n_fft, self.r1), cazac_generate(self.n_fft, self.r2)]))
        x.flags.writeable = False
        return x

    @cached_property
    def frame(self) -> PreambleFrame:
        """The read-only transmit frame: CP + chirp(r1), then CP + chirp(r2)."""
        frame = assemble_frame(np.conj(self.dechirp), self.cp_len)
        frame.samples.flags.writeable = False
        return frame


@dataclass(frozen=True, eq=False)
class PreambleFrame:
    """Assembled two-symbol frame: the CP-intact stream of both CP-prefixed symbols."""

    n_fft: int
    cp_len: int
    samples: np.ndarray

    @property
    def block_len(self) -> int:
        """Samples per CP-prefixed symbol."""
        return self.n_fft + self.cp_len


def cazac_generate(n_fft: int, rate: int) -> np.ndarray:
    """The unit-modulus chirp exp(j*pi*rate*n^2/n_fft), n = 0..n_fft-1, as a new array; see _check_chirp."""
    _check_chirp(n_fft, rate)
    n = np.arange(n_fft)
    return np.exp(1j * np.pi * rate * n * n / n_fft)


def dft(x: np.ndarray) -> np.ndarray:
    """Unitary forward DFT: X(k) = (1/sqrt(N)) * sum_n x(n) exp(-j2*pi*k*n/N).

    Transforms along the last axis, whose length must be a power of two;
    leading axes are a stack of independent transforms.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 0 or not _is_power_of_two(x.shape[-1]):
        raise ConfigError(f"dft requires a power-of-two length along the last axis, got shape {x.shape}")
    return np.fft.fft(x, norm="ortho")


def idft(x: np.ndarray) -> np.ndarray:
    """Unitary inverse DFT along the last axis: exp(+j2*pi*k*n/N) kernel, same 1/sqrt(N) factor."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 0 or not _is_power_of_two(x.shape[-1]):
        raise ConfigError(f"idft requires a power-of-two length along the last axis, got shape {x.shape}")
    return np.fft.ifft(x, norm="ortho")


def _check_cp(cp_len: int, n_fft: int) -> None:
    """Raise ConfigError unless 0 <= cp_len <= n_fft: a prefix copies at most its whole symbol."""
    if not 0 <= cp_len <= n_fft:
        raise ConfigError(f"cp_len must be between 0 and n_fft = {n_fft}, got {cp_len}")


def assemble_frame(symbols: np.ndarray, cp_len: int) -> PreambleFrame:
    """Prefix each row of the (k, N) stack with its own last cp_len samples; join the rows."""
    n_fft = symbols.shape[1]
    _check_cp(cp_len, n_fft)
    blocks = np.concatenate([symbols[:, n_fft - cp_len :], symbols], axis=1, dtype=np.complex128)
    return PreambleFrame(n_fft=n_fft, cp_len=cp_len, samples=blocks.ravel())


@lru_cache(maxsize=8)
def _preamble_for(n_fft: int, r1: int, r2: int, cp_len: int) -> PreambleSpec:
    """The spec these parameters name, built once per set, so its frame and dechirp pair are too."""
    return PreambleSpec(n_fft, r1, r2, cp_len)
