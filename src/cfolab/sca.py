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

  estimates the integer part.  With P(j) = conj(X1(2j)) * X2(2j), the sum
  is the circular cross-correlation of P with v over the N/2 even bins, so
  every shift comes from one FFT of P and one inverse FFT: O(N log N) per
  frame.  The metric relies on the channel being equal across the two
  symbols, which is exactly what a symbol-to-symbol varying channel breaks.
"""

from __future__ import annotations

import math
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


def sca_estimate_batch(
    y: np.ndarray,
    pre: ScaPreamble,
    search_range: int | None = None,
    ffo_stage: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the Schmidl-Cox estimator on a (T, 2, N) stack of received symbol pairs.

    Returns (ffo, ifo, metric): ffo (T,) is NaN for rows without a usable
    phase or energy (sca_estimate raises DegenerateSignalError there), ifo
    (T,) is the even integer estimate 2g as a float, and metric (T, 2S+1)
    holds B(g) for g = -S..S with S = search_range.
    """
    n = pre.n_fft
    if search_range is None:
        search_range = n // 4
    if search_range > n // 4:
        raise ConfigError(f"search_range must be <= n_fft/4 = {n // 4}, got {search_range}")
    if ffo_stage:
        # The half-symbol correlation is the lag-N/2 autocorrelation.
        ffo = estimate_ffo(y[:, 0], 2)
        y = compensate(y, ffo[:, None])
    else:
        ffo = np.zeros(y.shape[0])
    x = dft(y)
    energy = np.sum(np.abs(x[:, 1]) ** 2, axis=-1)

    # The sum in B(g) is sum_j conj(v(j)) * P((j + g) mod N/2): one FFT of P,
    # a product with the conjugate spectrum of v, one inverse FFT.  sqrt(N/2)
    # turns the unitary transforms' scale into the plain sum.  g = +-N/4 read
    # the same bin, so they tie exactly and argmax keeps the lower g.
    half = n // 2
    shifts = np.arange(-search_range, search_range + 1)
    p = np.conj(x[:, 0, 0::2]) * x[:, 1, 0::2]
    corr = idft(dft(p) * (np.conj(dft(pre.v)) * math.sqrt(half)))
    # All-zero rows divide by zero here; they are flagged through ffo below.
    with np.errstate(divide="ignore", invalid="ignore"):
        metric = np.abs(corr[:, shifts % half]) ** 2 / (2.0 * energy[:, None] ** 2)
    g_hat = shifts[np.argmax(metric, axis=-1)]
    ffo[energy < 1e-12] = np.nan
    return ffo, 2.0 * g_hat, metric


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
    distinct even shift.  Ties go to the lowest g.  This is
    sca_estimate_batch for one frame.

    Raises:
        DegenerateSignalError: the training symbols carry no usable phase or
            energy.
    """
    ffo, ifo, metric = sca_estimate_batch(np.stack(rx.symbols)[None], pre, search_range, ffo_stage)
    if math.isnan(ffo[0]):
        raise DegenerateSignalError("training symbols carry no usable phase or energy")
    n = pre.n_fft
    shifts = np.arange(metric.shape[-1]) - metric.shape[-1] // 2

    # Diagnostics mapped onto spectrum bins: metric value at tau = 2g mod N.
    profile = np.zeros(n)
    np.maximum.at(profile, (2 * shifts) % n, metric[0])
    loc = int(np.argmax(profile))
    peaks = PeakReport(corr_1=profile, corr_2=profile, loc_1=loc, loc_2=loc)
    return CfoEstimate(
        ffo=float(ffo[0]), ifo_residual=int(ifo[0]), total=float(ifo[0] + ffo[0]), peaks=peaks
    )
