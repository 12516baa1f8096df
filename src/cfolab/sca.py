"""Schmidl-Cox frequency synchronization baseline.

Reimplements the classic two-training-symbol method of T. M. Schmidl and
D. C. Cox, "Robust frequency and timing synchronization for OFDM", IEEE
Trans. Commun. 45 (1997) 1613-1621, as the comparison baseline:

* Symbol 1 carries PN values on even subcarriers only, so its time-domain
  form repeats after N/2 samples.  The phase of the half-symbol
  autocorrelation gives the fractional offset within +-1 subcarrier.
* Symbol 2 carries PN values on every subcarrier.  The differential sequence
  v(k) between the two symbols' even bins is known at the receiver, and the
  even shift 2g maximizing

      B(g) = |sum_{k even} conj(X1(k+2g)) * conj(v(k)) * X2(k+2g)|^2
             / (2 * (sum_k |X2(k)|^2)^2)

  estimates the integer part.  The metric relies on the channel being equal
  across the two symbols, which is exactly what a symbol-to-symbol varying
  channel breaks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ReceivedFrame
from .errors import ConfigError, DegenerateSignalError
from .estimator import CfoEstimate, PeakReport, compensate, estimate_ffo
from .signal import PreambleFrame, _is_power_of_two, assemble_frame, dft, idft


@dataclass(frozen=True, eq=False)
class ScaPreamble:
    """Two Schmidl-Cox training symbols plus the receiver-side differential sequence.

    pn_even_1 holds the even-bin values of symbol 1 (bin 2j -> pn_even_1[j]),
    pn_2 the full spectrum of symbol 2, and v the per-even-bin ratio
    pn_2(2j) / pn_even_1(j).  frame is the assembled CP-prefixed waveform with
    both time symbols scaled to unit average power.
    """

    n_fft: int
    cp_len: int
    pn_even_1: np.ndarray
    pn_2: np.ndarray
    v: np.ndarray
    frame: PreambleFrame


def _random_qpsk(rng: np.random.Generator, size: int) -> np.ndarray:
    return np.exp(1j * (np.pi / 2.0 * rng.integers(0, 4, size) + np.pi / 4.0))


def sca_build_preamble(n_fft: int, cp_len: int, rng: np.random.Generator) -> ScaPreamble:
    """Draw the PN sequences and assemble the two training symbols.

    Symbol 1 loads random QPSK on even bins (odd bins zero), which makes its
    time-domain halves identical; symbol 2 loads random QPSK on every bin.
    Both time symbols are scaled to unit average power.
    """
    if not _is_power_of_two(n_fft):
        raise ConfigError(f"n_fft must be a power of two, got {n_fft}")
    pn_even_1 = _random_qpsk(rng, n_fft // 2)
    pn_2 = _random_qpsk(rng, n_fft)
    spectrum_1 = np.zeros(n_fft, dtype=np.complex128)
    spectrum_1[0::2] = pn_even_1
    sym_1 = idft(spectrum_1)
    sym_1 = sym_1 / np.sqrt(np.mean(np.abs(sym_1) ** 2))
    sym_2 = idft(pn_2)
    sym_2 = sym_2 / np.sqrt(np.mean(np.abs(sym_2) ** 2))
    v = pn_2[0::2] / pn_even_1
    return ScaPreamble(
        n_fft=n_fft,
        cp_len=cp_len,
        pn_even_1=pn_even_1,
        pn_2=pn_2,
        v=v,
        frame=assemble_frame([sym_1, sym_2], cp_len),
    )


def sca_estimate(
    rx: ReceivedFrame,
    pre: ScaPreamble,
    search_range: int | None = None,
    ffo_stage: bool = True,
) -> CfoEstimate:
    """Estimate the offset with the Schmidl-Cox two-symbol method.

    The fractional part comes from the phase of the half-symbol
    autocorrelation of symbol 1 (range +-1 subcarrier); both symbols are then
    derotated and the even shift 2g with |g| <= search_range maximizing B(g)
    gives the integer part.  search_range defaults to N/4, which spans every
    distinct even shift.  Ties go to the lowest g.
    """
    n = pre.n_fft
    if search_range is None:
        search_range = n // 4
    if search_range > n // 4:
        raise ConfigError(f"search_range must be <= n_fft/4 = {n // 4}, got {search_range}")
    y1, y2 = rx.symbols
    if ffo_stage:
        # The half-symbol correlation is the lag-N/2 autocorrelation.
        ffo = estimate_ffo(y1, 2)
        y1 = compensate(y1, ffo)
        y2 = compensate(y2, ffo)
    else:
        ffo = 0.0
    x1 = dft(y1)
    x2 = dft(y2)
    energy = np.sum(np.abs(x2) ** 2)
    if energy < 1e-12:
        raise DegenerateSignalError("all-zero training symbols")

    even = np.arange(0, n, 2)
    shifts = np.arange(-search_range, search_range + 1)
    idx = (even[None, :] + 2 * shifts[:, None]) % n
    terms = np.conj(x1[idx]) * np.conj(pre.v)[None, :] * x2[idx]
    metric = np.abs(terms.sum(axis=1)) ** 2 / (2.0 * energy**2)
    g_hat = int(shifts[int(np.argmax(metric))])

    # Diagnostics mapped onto spectrum bins: metric value at tau = 2g mod N.
    profile = np.zeros(n)
    np.maximum.at(profile, (2 * shifts) % n, metric)
    loc = int(np.argmax(profile))
    peaks = PeakReport(corr_1=profile, corr_2=profile, loc_1=loc, loc_2=loc)
    return CfoEstimate(ffo=ffo, ifo_residual=2 * g_hat, total=2 * g_hat + ffo, peaks=peaks)
