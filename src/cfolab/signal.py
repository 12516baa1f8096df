"""Chirp preamble sequences, unitary transforms, and frame assembly.

The preamble is built from quadratic-phase chirps x(n) = exp(j*pi*rate*n^2/N).
With an even rate that divides N, the sequence is unit-modulus, periodic with
period N/rate, and its periodic autocorrelation vanishes at every lag that is
not a multiple of that period.  Two such sequences with different rates,
each behind a cyclic prefix, form the two-symbol synchronization preamble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CazacParams:
    """Parameters of one constant-amplitude chirp symbol.

    Attributes:
        n_fft: symbol length N in samples; must be a power of two.
        rate: chirp rate; must be even, divide n_fft, and be at most
            n_fft/2 so the chirp period n_fft/rate is even.  The even
            period is what makes the sequence exactly periodic mod N and
            keeps the circular-shift algebra of the frequency comb exact.
    """

    n_fft: int
    rate: int

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.n_fft):
            raise ConfigError(f"n_fft must be a power of two, got {self.n_fft}")
        if self.rate <= 0 or self.n_fft % self.rate != 0:
            raise ConfigError(
                f"rate must be a positive divisor of n_fft, got rate={self.rate} n_fft={self.n_fft}"
            )
        if self.rate % 2 != 0:
            raise ConfigError(f"rate must be even, got {self.rate}")
        if (self.n_fft // self.rate) % 2 != 0:
            raise ConfigError(
                f"rate must be at most n_fft/2 (chirp period must be even), got rate={self.rate}"
            )

    @property
    def period(self) -> int:
        """Period of the chirp in samples (n_fft / rate)."""
        return self.n_fft // self.rate


@dataclass(frozen=True)
class PreambleSpec:
    """Two chirp symbols plus a common cyclic-prefix length.

    The first (low-rate) symbol drives the fractional-offset stage and both
    symbols drive the integer-offset stage.  Both symbols share one FFT size.
    """

    params_1: CazacParams
    params_2: CazacParams
    cp_len: int

    def __post_init__(self) -> None:
        if self.params_1.n_fft != self.params_2.n_fft:
            raise ConfigError(
                f"both symbols must share one FFT size, got "
                f"{self.params_1.n_fft} and {self.params_2.n_fft}"
            )
        _check_cp(self.cp_len, self.params_1.n_fft)

    @property
    def n_fft(self) -> int:
        return self.params_1.n_fft

    @property
    def frame_len(self) -> int:
        """Total frame length: two CP-prefixed symbols."""
        return 2 * (self.n_fft + self.cp_len)


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


def cazac_generate(params: CazacParams) -> np.ndarray:
    """Generate the unit-modulus chirp exp(j*pi*rate*n^2/n_fft), n = 0..n_fft-1, as a new array."""
    n = np.arange(params.n_fft)
    return np.exp(1j * np.pi * params.rate * n * n / params.n_fft)


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


def assemble_frame(symbols: list[np.ndarray] | tuple[np.ndarray, ...], cp_len: int) -> PreambleFrame:
    """Prefix each symbol with its own last cp_len samples and concatenate."""
    n_fft = symbols[0].shape[0]
    _check_cp(cp_len, n_fft)
    blocks = []
    for sym in symbols:
        if sym.shape[0] != n_fft:
            raise ConfigError("all symbols in a frame must share one length")
        blocks.append(sym[n_fft - cp_len :])
        blocks.append(sym)
    return PreambleFrame(
        n_fft=n_fft,
        cp_len=cp_len,
        samples=np.concatenate(blocks).astype(np.complex128),
    )


def build_preamble(spec: PreambleSpec) -> PreambleFrame:
    """Build the transmit frame: CP + chirp(rate_1), then CP + chirp(rate_2)."""
    return assemble_frame(
        [cazac_generate(spec.params_1), cazac_generate(spec.params_2)], spec.cp_len
    )
