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

This estimator and the Schmidl-Cox baseline (sca) share one front end,
receive, the one place that decides where the symbols sit in the stream,
and one report, CfoReport, whose row view is the one-frame CfoEstimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSignalError
from .signal import PreambleSpec, dft

# Autocorrelation magnitude, as a share of the symbol's mean power, at or
# below which the phase is meaningless.  Being relative, it flags the same
# captures at any scale estimate_ffo takes; an all-zero symbol is flagged.
_DEGENERATE_FLOOR = 1e-12


def wrap_offset(eps: float, rate: float) -> float:
    """Wrap eps into (-rate/2, rate/2], matching the principal-argument branch."""
    w = math.fmod(eps, rate)
    if w > rate / 2.0:
        w -= rate
    elif w <= -rate / 2.0:
        w += rate
    return w


@dataclass(frozen=True, eq=False)
class CfoEstimate:
    """One frame's receiver report: a row of CfoReport.

    total == ifo_residual + ffo, the resolved integer plus the fractional
    estimate.  profiles (k, M) and peaks are the row's CfoReport fields.
    failed stays False until a detection margin sets it (ROADMAP item 18);
    a flagged row keeps its numbers.
    """

    ffo: float
    ifo_residual: int
    total: float
    profiles: np.ndarray
    peaks: tuple[int, ...]
    failed: bool = False


@dataclass(frozen=True, eq=False)
class CfoReport:
    """Both stages' output for a stack of T frames; every field has a leading trial axis.

    ffo (T,) is NaN for a degenerate row.  ifo (T,) is the resolved integer
    offset, an integer array: the integer stage resolves every row.  profiles
    (T, k, M) holds what the integer stage searched: the two correlation
    magnitudes (k = 2, M = N) for the proposed estimator, B(g) over
    g = -N/4..N/4 (k = 1, M = N/2 + 1) for Schmidl-Cox.  peaks (T, k) is
    the index of each profile's maximum.

    A row is degenerate when any of its profiles is not > 0 at its peak:
    an all-zero profile carries no offset, and a NaN one has no peak to
    trust.  Building the report sets ffo, in place, to NaN on each such
    row; beside the fractional stage's NaN for a symbol without phase, this
    is the one degenerate rule of both estimators.
    """

    ffo: np.ndarray
    ifo: np.ndarray
    profiles: np.ndarray
    peaks: np.ndarray

    def __post_init__(self) -> None:
        # A profile's maximum is its value at its peak, NaN included.  The
        # ufuncs' own reduce gives ndarray.max/min's values without their
        # Python-level wrappers, which a one-frame call would pay for, as it
        # would the masked write on a stack without a degenerate row.
        live = np.minimum.reduce(np.maximum.reduce(self.profiles, axis=-1), axis=-1) > 0
        if not live.all():
            self.ffo[~live] = np.nan

    def row(self, t: int) -> CfoEstimate:
        """Row t as a CfoEstimate.

        Raises:
            DegenerateSignalError: row t is degenerate (NaN ffo).
        """
        ffo, ifo = float(self.ffo[t]), int(self.ifo[t])
        if math.isnan(ffo):
            raise DegenerateSignalError("preamble symbols carry no usable phase or energy")
        return CfoEstimate(ffo, ifo, ifo + ffo, self.profiles[t], tuple(self.peaks[t].tolist()))


def time_autocorr(y: np.ndarray, rate: int) -> np.complex128 | np.ndarray:
    """Average lag-N/rate autocorrelation of one received symbol, or of a stack.

    Returns (1/(N - N/rate)) * sum_n y(n + N/rate) * conj(y(n)).  For the
    chirp preamble over a noiseless multipath channel this equals
    sum_m |h(m)|^2 * exp(j*2*pi*cfo/rate): the cross-path terms cancel, so
    the phase encodes the offset modulo the rate.  y may carry leading axes
    (a stack of symbols along the last axis); the result has those axes,
    so one symbol gives a numpy scalar (np.complex128).  The real and
    imaginary parts are summed apart, with np.add.reduce over real
    products, which no BLAS kernel and no numpy SIMD dispatch rounds
    differently.
    """
    y = np.asarray(y)
    n = y.shape[-1]
    if rate < 2 or n % rate != 0:
        raise ConfigError(f"rate must be >= 2 and divide the buffer length, got rate={rate} len={n}")
    lag = n // rate
    x, z = y[..., : n - lag], y[..., lag:]
    r = np.empty(y.shape[:-1], dtype=np.complex128)
    np.add.reduce(x.real * z.real + x.imag * z.imag, axis=-1, out=r.real)
    np.add.reduce(x.real * z.imag - x.imag * z.real, axis=-1, out=r.imag)
    return r / (n - lag)


def estimate_ffo(y: np.ndarray, rate: int) -> float | np.ndarray:
    """Fractional-offset estimate (rate/(2*pi)) * arg(autocorrelation).

    The principal argument lands the result in (-rate/2, rate/2]; the true
    offset is recovered modulo the rate, and the leftover integer ambiguity
    is the second stage's job.  y is a (T, N) stack (a (T,) array is
    returned) or one symbol, which is row 0 of a one-row stack (a float is
    returned).  A row whose autocorrelation is too small to carry a phase
    (all-zero or pathological input) reads NaN, so one unusable trial does
    not stop the others.  The floor is relative to the symbol's mean power,
    so scale alone does not trip it for sample magnitudes of about 1e-150 to
    1e150, every float32 capture included; past that the row reads NaN.
    Like the autocorrelation, the energy is summed without BLAS, so the
    estimate has the same bits under every BLAS kernel.
    """
    y = np.asarray(y)
    if y.ndim == 1:
        return estimate_ffo(y[None], rate)[0]
    r_t = time_autocorr(y, rate)
    # The symbol's energy, summed over real products like time_autocorr's sums.
    energy = np.add.reduce(y.real * y.real + y.imag * y.imag, axis=-1)
    # np.abs, not abs(): Python's complex magnitude differs from numpy's in
    # the last bit for about a third of values, which could move a row
    # across the floor.
    magnitude = np.abs(r_t)
    scale, n = rate / (2.0 * np.pi), y.shape[-1]
    # math.atan2 per row: numpy's vectorized arctan2 may differ from it in
    # the last bit, which would move printed estimates.
    return np.array([
        math.nan if m <= _DEGENERATE_FLOOR * e / n else scale * math.atan2(r.imag, r.real)
        for r, m, e in zip(r_t.tolist(), magnitude.tolist(), energy.tolist())
    ])


def compensate(y: np.ndarray, ffo: float | np.ndarray) -> np.ndarray:
    """Derotate symbol windows by exp(-j*2*pi*ffo*n/N), n = 0..N-1.

    y may carry leading axes; ffo is a scalar or broadcasts against
    y.shape[:-1].  The phase is real, ((-2*pi*ffo) * n) * (1/N): the
    products, in their order, that numpy's complex form exp(-2j*pi*ffo*n/N)
    takes on its imaginary part (complex division by N multiplies by 1/N).
    The phasor's real and imaginary parts are written as cos(theta) and
    sin(theta), without a complex exponential; they have the bits of
    np.exp(1j*theta), so both forms give the same bits.
    """
    y = np.asarray(y)
    n = np.arange(y.shape[-1])
    theta = (-2.0 * np.pi * np.asarray(ffo))[..., None] * n * (1.0 / y.shape[-1])
    phasor = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=phasor.real)
    np.sin(theta, out=phasor.imag)
    return y * phasor


def freq_correlate(y_comp: np.ndarray, dechirp: np.ndarray) -> np.ndarray:
    """Circular spectrum correlation against the reference chirp.

    Computes R(tau) = (1/N) * sum_k X((k - tau) mod N) * conj(Z(k)) for all
    tau, where Z is the unitary DFT of the compensated symbol and X that of
    the clean chirp.  By Parseval this correlation is one DFT of the
    dechirped symbol: R(tau) = conj(DFT(conj(x) * y)(tau)) / sqrt(N), with
    x the clean chirp in time.  With an integer residual offset the
    magnitude is zero everywhere except the comb teeth (q - rate*m) mod N.
    y_comp may carry leading axes; the correlation runs along the last.
    dechirp is conj(x), one (N,) row or a (k, N) stack such as
    PreambleSpec.dechirp that broadcasts against y_comp: for a (T, k, N)
    stack, symbol s correlates against row s, and all take one DFT.  The
    result is scaled by multiplying with 1/sqrt(N).  numpy's complex
    division by a real also multiplies by the reciprocal, so the values are
    the division's, bit for bit except that a zero part may carry the other
    sign; the estimator reads only the magnitude, which drops that sign.
    """
    y_comp = np.asarray(y_comp)
    n_fft = dechirp.shape[-1]
    if y_comp.shape[-1] != n_fft:
        raise ConfigError(f"buffer length {y_comp.shape[-1]} does not match n_fft {n_fft}")
    corr = dft(dechirp * y_comp)
    np.conj(corr, out=corr)
    corr *= 1.0 / math.sqrt(n_fft)
    return corr


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


def receive(stream: np.ndarray, pre, ffo_stage: bool) -> tuple[np.ndarray, np.ndarray]:
    """Front end of both estimators: (T, 2*(N+cp)) frame streams in, (ffo, windows) out.

    pre, a PreambleSpec or an sca.ScaPreamble, gives N and the CP (its
    frame) and the fractional rate r1.  Takes each frame's two CP-stripped
    symbols as a (T, 2, N) view, then estimates ffo (T,) from the first
    (NaN where it carries no phase) at rate r1 and derotates both by it;
    with ffo_stage False, ffo is 0 and the view is returned.  Raises
    ConfigError for streams of any other shape.
    """
    stream = np.asarray(stream)
    cp_len = pre.frame.cp_len
    block = pre.frame.n_fft + cp_len
    if stream.ndim != 2 or stream.shape[1] != 2 * block:
        raise ConfigError(
            f"expected frame streams of 2*(n_fft + cp_len) = {2 * block} samples, "
            f"got an array of shape {stream.shape}"
        )
    windows = stream.reshape(stream.shape[0], 2, block)[:, :, cp_len:]
    if not ffo_stage:
        return np.zeros(stream.shape[0]), windows
    ffo = estimate_ffo(windows[:, 0], pre.r1)
    return ffo, compensate(windows, ffo[:, None])


def estimate_cfo_batch(
    stream: np.ndarray, spec: PreambleSpec, ffo_stage: bool = True
) -> CfoReport:
    """Run both stages on (T, frame_len) received frame streams.

    Each stage is one array pass over the trial axis; the integer stage
    dechirps both symbols against spec.dechirp and takes one DFT, one
    magnitude and one argmax over the whole stack.  Only resolve_ifo runs
    per row.  A row is degenerate (NaN ffo) when its first symbol's
    autocorrelation is too small to carry a phase or its symbols leave
    either correlation profile all zero (CfoReport), with or without the
    fractional stage.  The report's profiles are the (T, 2, N)
    correlation magnitudes and its peaks their (T, 2) argmax bins.

    Raises:
        ConfigError: the streams are not (T, spec.frame_len).
    """
    ffo, y = receive(stream, spec, ffo_stage)
    corr = np.abs(freq_correlate(y, spec.dechirp))
    loc = np.argmax(corr, axis=-1)
    ifo = np.array([resolve_ifo(l1, l2, spec.r2, spec.n_fft) for l1, l2 in loc.tolist()], dtype=int)
    return CfoReport(ffo, ifo, corr, loc)


def estimate_cfo(stream: np.ndarray, spec: PreambleSpec, ffo_stage: bool = True) -> CfoEstimate:
    """Run both stages on one received frame stream of spec.frame_len samples.

    The fractional estimate comes from the first (low-rate) symbol and
    derotates both symbols, each with its own n = 0 index origin; the
    integer stage then correlates each compensated spectrum against its own
    reference chirp and resolves the residual integer from the two peak
    locations.  With ffo_stage False the fractional stage is skipped and the
    symbols are used as-is (ffo = 0), which is only meaningful for integer
    offsets.  This is row 0 of estimate_cfo_batch on the one frame.

    Raises:
        ConfigError: the stream does not hold spec.frame_len samples.
        DegenerateSignalError: the first symbol's autocorrelation is too
            small to carry a phase, or a symbol leaves its correlation
            profile all zero.
    """
    return estimate_cfo_batch(np.asarray(stream)[None], spec, ffo_stage).row(0)
