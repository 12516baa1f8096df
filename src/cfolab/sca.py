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

from .errors import ConfigError
from .estimator import CfoEstimate, CfoReport, receive
from .signal import PreambleFrame, _is_power_of_two, assemble_frame, dft, idft


@dataclass(frozen=True, eq=False)
class ScaPreamble:
    """Two Schmidl-Cox training symbols plus the receiver-side differential sequence.

    pn_even_1 holds the even-bin values of symbol 1 (bin 2j -> pn_even_1[j]),
    pn_2 the full spectrum of symbol 2, and v the per-even-bin ratio
    pn_2(2j) / pn_even_1(j).  kernel is conj(dft(v)) * sqrt(N/2), the factor
    every B(g) correlation multiplies by, formed once per preamble.  frame
    is the assembled CP-prefixed waveform with both time symbols scaled to
    unit average power, and holds the FFT size and CP length.  A sweep
    builds one per FFT size, from its master seed, before its first pass.
    """

    # The fractional stage's rate: symbol 1 repeats every N/r1 = N/2 samples.
    r1 = 2

    pn_even_1: np.ndarray
    pn_2: np.ndarray
    v: np.ndarray
    kernel: np.ndarray
    frame: PreambleFrame


# The four QPSK points exp(j*(pi/2*k + pi/4)), k = 0..3: a draw indexes them.
_QPSK = np.exp(1j * (np.pi / 2.0 * np.arange(4) + np.pi / 4.0))


def _repeats(d: np.ndarray) -> np.ndarray:
    """Whether v = 1j**d repeats under a nonzero circular shift of its last axis, up to a phase.

    Those shifts form a subgroup of Z_{N/2}, a power of two, so a nonzero one
    holds h = N/4; v repeats under h iff (d[h:] - d[:h]) % 4 is one constant,
    and even, as two shifts by h give v back.  Integer arithmetic: no rounding decides.
    """
    h = d.shape[-1] // 2
    e = (d[..., h:] - d[..., :h]) % 4
    return (h > 0) & np.all((e == e[..., :1]) & (e % 2 == 0), axis=-1)


def sca_build_preamble(n_fft: int, cp_len: int, rng: np.random.Generator) -> ScaPreamble:
    """Draw the PN sequences and assemble the two training symbols.

    Symbol 1 loads random QPSK on even bins (odd bins zero), which makes its
    time-domain halves identical; symbol 2 loads random QPSK on every bin.
    Both time symbols are scaled to unit average power.  A draw whose
    differential sequence v repeats under some nonzero circular shift (up to
    a constant phase) is drawn again: B(g) would tie at that shift even
    through a noiseless channel, so the integer search could not resolve it.
    Such draws only occur with a few even bins (512 of 65,536, 1 in 128, for N = 16).
    """
    if not _is_power_of_two(n_fft):
        raise ConfigError(f"n_fft must be a power of two, got {n_fft}")
    half = n_fft // 2
    while True:
        a = rng.integers(0, 4, half)
        b = rng.integers(0, 4, n_fft)
        # v = pn_2[0::2] / pn_even_1 is 1j**d: each QPSK point is 1j**k times one phase.
        if not _repeats((b[0::2] - a) % 4):
            break
    pn_even_1 = _QPSK[a]
    pn_2 = _QPSK[b]
    v = pn_2[0::2] / pn_even_1
    kernel = np.conj(dft(v)) * math.sqrt(half)
    spectra = np.zeros((2, n_fft), dtype=np.complex128)
    spectra[0, 0::2] = pn_even_1
    spectra[1] = pn_2
    symbols = idft(spectra)
    symbols *= 1.0 / np.sqrt(np.mean(np.abs(symbols) ** 2, axis=-1, keepdims=True))
    return ScaPreamble(pn_even_1, pn_2, v, kernel, assemble_frame(symbols, cp_len))


def sca_estimate_batch(
    stream: np.ndarray, pre: ScaPreamble, ffo_stage: bool = True
) -> CfoReport:
    """Run the Schmidl-Cox estimator on (T, 2*(N+cp)) received frame streams.

    In the report, ffo (T,) is NaN for rows without a usable phase or with
    a training symbol that is all zero, ifo (T,) is the even integer
    estimate 2g, profiles (T, 1, N/2+1) holds B(g) for
    g = -N/4..N/4, which spans every distinct even shift, and peaks (T, 1)
    is the index of its argmax.

    Raises:
        ConfigError: the streams are not (T, 2*(N+cp)).
    """
    n = pre.frame.n_fft
    ffo, y = receive(stream, pre, ffo_stage)
    x = dft(y)
    energy = np.sum(np.abs(x[:, 1]) ** 2, axis=-1)

    # The sum in B(g) is sum_j conj(v(j)) * P((j + g) mod N/2): one FFT of P,
    # a product with the conjugate spectrum of v (the kernel), one inverse
    # FFT.  The kernel's sqrt(N/2) turns the unitary transforms' scale into
    # the plain sum.  g = +-N/4 read the same bin, so they tie exactly and
    # argmax keeps the lower g.
    half = n // 2
    shifts = np.arange(-(n // 4), n // 4 + 1)
    p = np.conj(x[:, 0, 0::2]) * x[:, 1, 0::2]
    corr = idft(dft(p) * pre.kernel)
    # Dividing before squaring keeps the metric finite when the energy is
    # huge (very low SNR).  B(g) is NaN where symbol 2 carries no energy,
    # also where that energy underflowed to 0 under a nonzero correlation,
    # which would read inf; it is 0 at every shift where symbol 1 is all
    # zero.  CfoReport flags both, and only rows like them, as degenerate:
    # the scale of a frame decides nothing.
    energy[energy == 0] = np.nan
    metric = (np.abs(corr[:, shifts % half]) / energy[:, None]) ** 2 / 2.0
    peak = np.argmax(metric, axis=-1)
    return CfoReport(ffo, 2 * shifts[peak], metric[:, None], peak[:, None])


def sca_estimate(stream: np.ndarray, pre: ScaPreamble, ffo_stage: bool = True) -> CfoEstimate:
    """Estimate the offset from one received frame stream with the Schmidl-Cox method.

    The fractional part comes from the phase of the half-symbol
    autocorrelation of symbol 1 (range +-1 subcarrier); both symbols are then
    derotated and the even shift 2g with |g| <= N/4 maximizing B(g) gives
    the integer part.  Ties go to the lowest g.  This is row 0 of
    sca_estimate_batch on the one frame.

    Raises:
        ConfigError: the stream does not hold 2*(N+cp) samples.
        DegenerateSignalError: the training symbols carry no usable phase,
            or one of them is all zero.
    """
    return sca_estimate_batch(np.asarray(stream)[None], pre, ffo_stage).row(0)
