"""Two-stage carrier frequency offset estimator over dual chirp-rate preambles.

Stage 1 (time domain): the lag-N/rate autocorrelation of the first symbol
measures the offset modulo the chirp rate, giving a fractional estimate in
(-rate/2, rate/2].

Stage 2 (frequency domain): after derotating both symbols by the fractional
estimate, each spectrum is circularly correlated against the known reference
spectrum of its own chirp.  That correlation is computed as "dechirp, then
one FFT": multiplying the symbol by the conjugate chirp and taking a single
DFT gives the same values as the spectral correlation, by Parseval, in
O(N log N) instead of O(N^2).  A residual integer offset q shifts the whole
spectrum, so the correlation magnitude is a comb with teeth at
tau = (q - rate*m) mod N, one tooth per channel path m.  Because the two
symbols use different rates, the two combs only line up at the m = 0 anchor,
and a short peak-walk recovers q from the pair of global peak locations
without requiring the channel to stay constant between symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ReceivedFrame
from .errors import ConfigError, DegenerateSignalError, ResolutionError
from .signal import CazacParams, PreambleSpec, cazac_generate, dft

# Minimum autocorrelation magnitude below which the phase is meaningless.
_DEGENERATE_FLOOR = 1e-12


@dataclass(frozen=True)
class CfoDecomposition:
    """Exact split of an offset into integer/fractional/residue parts.

    eps_int is the nearest integer (eps_frac in [-0.5, 0.5)); eps_mod_r and
    floor_div split eps_int by truncating division, so eps_mod_r carries the
    sign of eps_int.  The parts always reconstruct exactly:
    eps == floor_div * rate + eps_mod_r + eps_frac.
    """

    eps: float
    eps_int: int
    eps_frac: float
    eps_mod_r: int
    floor_div: int


def decompose_cfo(eps: float, rate: int) -> CfoDecomposition:
    """Split eps into the parts used by the fractional-stage wrap analysis."""
    eps_int = math.floor(eps + 0.5)
    eps_frac = eps - eps_int
    floor_div = int(abs(eps_int) // rate) * (1 if eps_int >= 0 else -1)
    eps_mod_r = eps_int - floor_div * rate
    return CfoDecomposition(
        eps=eps, eps_int=eps_int, eps_frac=eps_frac, eps_mod_r=eps_mod_r, floor_div=floor_div
    )


def wrap_offset(eps: float, rate: float) -> float:
    """Wrap eps into (-rate/2, rate/2], matching the principal-argument branch."""
    w = math.fmod(eps, rate)
    if w > rate / 2.0:
        w -= rate
    elif w <= -rate / 2.0:
        w += rate
    return w


@dataclass(frozen=True, eq=False)
class PeakReport:
    """Magnitude profiles of both frequency correlations and their peak bins."""

    corr_1: np.ndarray
    corr_2: np.ndarray
    loc_1: int
    loc_2: int


@dataclass(frozen=True, eq=False)
class CfoEstimate:
    """Output of the two-stage estimator.

    On success, total == ifo_residual + ffo.  When the integer stage fails to
    resolve, failed is True, ifo_residual/total are None, and ffo still holds
    the fractional-stage output.
    """

    ffo: float
    ifo_residual: int | None
    total: float | None
    peaks: PeakReport
    failed: bool = False


def time_autocorr(y: np.ndarray, rate: int) -> complex:
    """Average lag-N/rate autocorrelation of one received symbol.

    Returns (1/(N - N/rate)) * sum_n y(n + N/rate) * conj(y(n)).  For the
    chirp preamble over a noiseless multipath channel this equals
    sum_m |h(m)|^2 * exp(j*2*pi*cfo/rate): the cross-path terms cancel, so
    the phase encodes the offset modulo the rate.
    """
    y = np.asarray(y)
    n = y.shape[0]
    if rate < 2 or n % rate != 0:
        raise ConfigError(f"rate must be >= 2 and divide the buffer length, got rate={rate} len={n}")
    lag = n // rate
    return complex(np.vdot(y[: n - lag], y[lag:]) / (n - lag))


def estimate_ffo(y: np.ndarray, rate: int) -> float:
    """Fractional-offset estimate (rate/(2*pi)) * arg(autocorrelation).

    The principal argument lands the result in (-rate/2, rate/2]; the true
    offset is recovered modulo the rate, and the leftover integer ambiguity
    is the second stage's job.

    Raises:
        DegenerateSignalError: autocorrelation magnitude too small to carry
            a phase (all-zero or pathological input).
    """
    r_t = time_autocorr(y, rate)
    if abs(r_t) < _DEGENERATE_FLOOR:
        raise DegenerateSignalError("autocorrelation magnitude below phase-noise floor")
    return rate / (2.0 * np.pi) * math.atan2(r_t.imag, r_t.real)


def compensate(y: np.ndarray, ffo: float) -> np.ndarray:
    """Derotate a symbol window by exp(-j*2*pi*ffo*n/N), n = 0..N-1."""
    y = np.asarray(y)
    n = np.arange(y.shape[0])
    return y * np.exp(-2j * np.pi * ffo * n / y.shape[0])


def freq_correlate(y_comp: np.ndarray, params: CazacParams) -> np.ndarray:
    """Circular spectrum correlation against the reference chirp.

    Computes R(tau) = (1/N) * sum_k X((k - tau) mod N) * conj(Z(k)) for all
    tau, where Z is the unitary DFT of the compensated symbol and X that of
    the clean chirp.  By Parseval this correlation is one DFT of the
    dechirped symbol: R(tau) = conj(DFT(conj(x) * y)(tau)) / sqrt(N), with
    x the clean chirp in time.  With an integer residual offset the
    magnitude is zero everywhere except the comb teeth (q - rate*m) mod N.
    """
    y_comp = np.asarray(y_comp)
    if y_comp.shape[0] != params.n_fft:
        raise ConfigError(
            f"buffer length {y_comp.shape[0]} does not match n_fft {params.n_fft}"
        )
    return np.conj(dft(np.conj(cazac_generate(params)) * y_comp)) / np.sqrt(params.n_fft)


def resolve_ifo(loc_1: int, loc_2: int, rate_2: int, n_fft: int) -> int:
    """Walk the high-rate peak onto the low-rate peak to recover the integer offset.

    Both peak locations alias the same integer offset q minus a rate-multiple
    path delay.  Stepping the rate-2 peak upward in rate_2 increments (with a
    half-spectrum wrap for negative offsets) re-aligns it with q; the guard
    against walking when the peak already sits at or below rate_2 keeps small
    positive offsets from being overshot.

    Returns the signed integer offset in (-n_fft/2, n_fft/2].

    Raises:
        ConfigError: peak locations outside [0, n_fft).
        ResolutionError: iteration cap exceeded (cannot happen for peak
            locations produced by the comb, kept as a hard safety net).
    """
    if not (0 <= loc_1 < n_fft and 0 <= loc_2 < n_fft):
        raise ConfigError(
            f"peak locations must lie in [0, {n_fft}), got {loc_1}, {loc_2}"
        )
    cap = 2 * (n_fft // rate_2) + 4
    steps = 0
    walked = loc_2
    if loc_1 < n_fft / 2:
        # Wrap the high-rate peak into the lower half, then raise it to the
        # first comb tooth at or above the low-rate peak.
        while walked >= n_fft / 2:
            walked = (walked + rate_2) % n_fft
            steps += 1
            if steps > cap:
                raise ResolutionError(f"peak walk exceeded {cap} iterations")
        while walked < loc_1:
            walked += rate_2
            steps += 1
            if steps > cap:
                raise ResolutionError(f"peak walk exceeded {cap} iterations")
    else:
        while walked < loc_1 and walked > rate_2:
            walked += rate_2
            steps += 1
            if steps > cap:
                raise ResolutionError(f"peak walk exceeded {cap} iterations")
    resolved = walked % n_fft
    if resolved > n_fft / 2:
        resolved -= n_fft
    return int(resolved)


def estimate_cfo(rx: ReceivedFrame, spec: PreambleSpec, ffo_stage: bool = True) -> CfoEstimate:
    """Run both stages on a received two-symbol frame.

    The fractional estimate comes from the first (low-rate) symbol and
    derotates both symbols, each with its own n = 0 index origin; the
    integer stage then correlates each compensated spectrum against its own
    reference chirp and resolves the residual integer from the two peak
    locations.  With ffo_stage False the fractional stage is skipped and the
    symbols are used as-is (ffo = 0), which is only meaningful for integer
    offsets.
    """
    y1, y2 = rx.symbols
    if ffo_stage:
        ffo = estimate_ffo(y1, spec.params_1.rate)
        y1 = compensate(y1, ffo)
        y2 = compensate(y2, ffo)
    else:
        ffo = 0.0
    corr_1 = np.abs(freq_correlate(y1, spec.params_1))
    corr_2 = np.abs(freq_correlate(y2, spec.params_2))
    loc_1 = int(np.argmax(corr_1))
    loc_2 = int(np.argmax(corr_2))
    peaks = PeakReport(corr_1=corr_1, corr_2=corr_2, loc_1=loc_1, loc_2=loc_2)
    try:
        ifo = resolve_ifo(loc_1, loc_2, spec.params_2.rate, spec.n_fft)
    except ResolutionError:
        return CfoEstimate(ffo=ffo, ifo_residual=None, total=None, peaks=peaks, failed=True)
    return CfoEstimate(ffo=ffo, ifo_residual=ifo, total=ifo + ffo, peaks=peaks)
