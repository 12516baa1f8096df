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
without requiring the channel to stay constant between symbols.  The walk
has a closed form: where it moves, it takes the rate-r2 peak loc_2 to the
first bin at or above the rate-r1 peak loc_1 that is congruent to loc_2
modulo r2, i.e. loc_1 + ((loc_2 - loc_1) mod r2).  It is exact for every
|q| < N/2 - r2 as long as r2 * (L - 1) <= N/2 for an L-path channel (see
resolve_ifo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ReceivedFrame
from .errors import ConfigError, DegenerateSignalError
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
    """Magnitude profiles of both frequency correlations and their peak bins.

    From estimate_cfo_batch every field has a leading trial axis.
    """

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


def time_autocorr(y: np.ndarray, rate: int) -> complex | np.ndarray:
    """Average lag-N/rate autocorrelation of one received symbol, or of a stack.

    Returns (1/(N - N/rate)) * sum_n y(n + N/rate) * conj(y(n)).  For the
    chirp preamble over a noiseless multipath channel this equals
    sum_m |h(m)|^2 * exp(j*2*pi*cfo/rate): the cross-path terms cancel, so
    the phase encodes the offset modulo the rate.  y may carry leading axes
    (a stack of symbols along the last axis); one symbol gives a complex.
    """
    y = np.asarray(y)
    n = y.shape[-1]
    if rate < 2 or n % rate != 0:
        raise ConfigError(f"rate must be >= 2 and divide the buffer length, got rate={rate} len={n}")
    lag = n // rate
    # A stacked (1, k) @ (k, 1) product is one BLAS dot per symbol: the sum
    # np.vdot forms, bit for bit, which np.sum and einsum are not.
    r_t = (np.conj(y[..., None, : n - lag]) @ y[..., lag:, None])[..., 0, 0] / (n - lag)
    return complex(r_t) if r_t.ndim == 0 else r_t


def estimate_ffo(y: np.ndarray, rate: int) -> float | np.ndarray:
    """Fractional-offset estimate (rate/(2*pi)) * arg(autocorrelation).

    The principal argument lands the result in (-rate/2, rate/2]; the true
    offset is recovered modulo the rate, and the leftover integer ambiguity
    is the second stage's job.  y is one symbol (a float is returned) or a
    (T, N) stack (a (T,) array is returned).  In a stack, a row whose
    autocorrelation is too small to carry a phase reads NaN instead of
    raising, so one unusable trial does not stop the others.

    Raises:
        DegenerateSignalError: one symbol whose autocorrelation magnitude is
            too small to carry a phase (all-zero or pathological input).
    """
    r_t = np.atleast_1d(time_autocorr(y, rate))
    # math.atan2 per row: numpy's vectorized arctan2 may differ from it in
    # the last bit, which would move printed estimates.
    ffo = rate / (2.0 * np.pi) * np.array([math.atan2(r.imag, r.real) for r in r_t.tolist()])
    degenerate = np.abs(r_t) < _DEGENERATE_FLOOR
    if np.ndim(y) > 1:
        ffo[degenerate] = np.nan
        return ffo
    if degenerate[0]:
        raise DegenerateSignalError("autocorrelation magnitude below phase-noise floor")
    return float(ffo[0])


def compensate(y: np.ndarray, ffo: float | np.ndarray) -> np.ndarray:
    """Derotate symbol windows by exp(-j*2*pi*ffo*n/N), n = 0..N-1.

    y may carry leading axes; ffo is a scalar or broadcasts against
    y.shape[:-1].
    """
    y = np.asarray(y)
    n = np.arange(y.shape[-1])
    return y * np.exp(-2j * np.pi * np.asarray(ffo)[..., None] * n / y.shape[-1])


@lru_cache(maxsize=32)
def _conj_chirps(params: CazacParams | tuple[CazacParams, ...]) -> np.ndarray:
    """Conjugate reference chirps, read-only: (N,) for one CazacParams, (k, N) for k of them."""
    if isinstance(params, CazacParams):
        x = np.conj(cazac_generate(params))
    else:
        x = np.conj(np.stack([cazac_generate(p) for p in params]))
    x.flags.writeable = False
    return x


def freq_correlate(
    y_comp: np.ndarray, params: CazacParams | tuple[CazacParams, ...]
) -> np.ndarray:
    """Circular spectrum correlation against the reference chirp.

    Computes R(tau) = (1/N) * sum_k X((k - tau) mod N) * conj(Z(k)) for all
    tau, where Z is the unitary DFT of the compensated symbol and X that of
    the clean chirp.  By Parseval this correlation is one DFT of the
    dechirped symbol: R(tau) = conj(DFT(conj(x) * y)(tau)) / sqrt(N), with
    x the clean chirp in time.  With an integer residual offset the
    magnitude is zero everywhere except the comb teeth (q - rate*m) mod N.
    y_comp may carry leading axes; the correlation runs along the last.
    params is one CazacParams, or a tuple of k sharing one n_fft whose
    (k, N) chirps broadcast against y_comp: for a (T, k, N) stack, symbol s
    correlates against chirp s, and all of them take one DFT.
    """
    y_comp = np.asarray(y_comp)
    conj_x = _conj_chirps(params)
    n_fft = conj_x.shape[-1]
    if y_comp.shape[-1] != n_fft:
        raise ConfigError(f"buffer length {y_comp.shape[-1]} does not match n_fft {n_fft}")
    return np.conj(dft(conj_x * y_comp)) / np.sqrt(n_fft)


def resolve_ifo(loc_1: int, loc_2: int, rate_2: int, n_fft: int) -> int:
    """Walk the high-rate peak onto the low-rate peak to recover the integer offset.

    Both peak locations alias the same integer offset q minus a rate-multiple
    path delay.  The paper's peak walk steps the rate-2 peak upward in rate_2
    increments until it reaches the rate-1 peak, wrapping it into the lower
    half first when the rate-1 peak sits there; with the rate-1 peak in the
    upper half, a rate-2 peak at or below rate_2 stays put, which keeps small
    positive offsets from being overshot.  Where the walk moves, it lands on
    the first bin at or above loc_1 congruent to loc_2 modulo rate_2, so it
    is one step: loc_1 + ((loc_2 - loc_1) mod rate_2), taken mod n_fft.

    For comb peaks of an L-path channel under the separability rule, this
    recovers every |q| < n_fft/2 - rate_2 exactly when rate_2 * (L - 1) <=
    n_fft/2.  Past that, a long high-rate path delay can resolve to a wrong
    offset without any sign of failure.

    Returns the signed integer offset in (-n_fft/2, n_fft/2].

    Raises:
        ConfigError: peak locations outside [0, n_fft).
    """
    if not (0 <= loc_1 < n_fft and 0 <= loc_2 < n_fft):
        raise ConfigError(
            f"peak locations must lie in [0, {n_fft}), got {loc_1}, {loc_2}"
        )
    low = loc_1 < n_fft / 2
    resolved = loc_2
    if (low and loc_2 >= n_fft / 2) or (loc_2 < loc_1 and (low or loc_2 > rate_2)):
        resolved = (loc_1 + (loc_2 - loc_1) % rate_2) % n_fft
    if resolved > n_fft / 2:
        resolved -= n_fft
    return int(resolved)


def estimate_cfo_batch(
    y: np.ndarray, spec: PreambleSpec, ffo_stage: bool = True
) -> tuple[np.ndarray, np.ndarray, PeakReport]:
    """Run both stages on a (T, 2, N) stack of received symbol pairs.

    Each stage is one array pass over the trial axis; the integer stage
    dechirps both symbols against a cached conjugate chirp pair and takes
    one DFT, one magnitude and one argmax over the whole stack.  Only
    resolve_ifo runs per row.  Returns (ffo, ifo, peaks): ffo (T,) is NaN
    for rows whose autocorrelation is too small to carry a phase
    (estimate_cfo raises DegenerateSignalError there); ifo (T,) is the
    resolved integer as a float, and a NaN there is reported as a failed
    resolution; peaks holds (T, N) magnitude profiles and (T,) peak bins.
    """
    if ffo_stage:
        ffo = estimate_ffo(y[:, 0], spec.params_1.rate)
        y = compensate(y, ffo[:, None])
    else:
        ffo = np.zeros(y.shape[0])
    corr = np.abs(freq_correlate(y, (spec.params_1, spec.params_2)))
    loc = np.argmax(corr, axis=-1)
    rate_2, n_fft = spec.params_2.rate, spec.n_fft
    ifo = np.array(
        [resolve_ifo(l1, l2, rate_2, n_fft) for l1, l2 in loc.tolist()],
        dtype=float,
    )
    return ffo, ifo, PeakReport(
        corr_1=corr[:, 0], corr_2=corr[:, 1], loc_1=loc[:, 0], loc_2=loc[:, 1]
    )


def estimate_cfo(rx: ReceivedFrame, spec: PreambleSpec, ffo_stage: bool = True) -> CfoEstimate:
    """Run both stages on a received two-symbol frame.

    The fractional estimate comes from the first (low-rate) symbol and
    derotates both symbols, each with its own n = 0 index origin; the
    integer stage then correlates each compensated spectrum against its own
    reference chirp and resolves the residual integer from the two peak
    locations.  With ffo_stage False the fractional stage is skipped and the
    symbols are used as-is (ffo = 0), which is only meaningful for integer
    offsets.  This is estimate_cfo_batch for one frame.

    Raises:
        DegenerateSignalError: the first symbol's autocorrelation is too
            small to carry a phase.
    """
    ffo, ifo, batch = estimate_cfo_batch(np.stack(rx.symbols)[None], spec, ffo_stage)
    if math.isnan(ffo[0]):
        raise DegenerateSignalError("autocorrelation magnitude below phase-noise floor")
    peaks = PeakReport(
        corr_1=batch.corr_1[0], corr_2=batch.corr_2[0],
        loc_1=int(batch.loc_1[0]), loc_2=int(batch.loc_2[0]),
    )
    if math.isnan(ifo[0]):
        return CfoEstimate(ffo=float(ffo[0]), ifo_residual=None, total=None, peaks=peaks, failed=True)
    return CfoEstimate(
        ffo=float(ffo[0]), ifo_residual=int(ifo[0]), total=float(ifo[0] + ffo[0]), peaks=peaks
    )
