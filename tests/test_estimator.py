"""Two-stage estimator: autocorrelation identities, comb correlation, peak walk."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfolab.channel import ChannelProfile, transmit
from cfolab.errors import ConfigError, DegenerateSignalError
from cfolab.estimator import (
    compensate,
    estimate_cfo,
    estimate_cfo_batch,
    estimate_ffo,
    freq_correlate,
    resolve_ifo,
    time_autocorr,
    wrap_offset,
)
from cfolab.sca import sca_build_preamble, sca_estimate, sca_estimate_batch
from cfolab.signal import PreambleSpec, cazac_generate

from conftest import chirp, dft_matrix, rayleigh_taps, synth_rx


def _spec(n_fft=128, cp=16):
    return PreambleSpec(n_fft, 2, 8, cp)


def _dechirp(n_fft, rate):
    """The conjugate reference chirp that freq_correlate takes for one symbol."""
    return np.conj(cazac_generate(n_fft, rate))


# ---------------------------------------------------------------------------
# time-domain stage
# ---------------------------------------------------------------------------


def test_time_autocorr_phase_single_path():
    y = synth_rx(64, 2, [1.0], cfo=0.3, phase0=0.0)
    got = time_autocorr(y, 2)
    assert abs(np.angle(got) - 2 * np.pi * 0.3 / 2) < 1e-9


def test_time_autocorr_zero_offset():
    rng = np.random.default_rng(0)
    taps = rayleigh_taps(rng, 4, 2.0)
    y = synth_rx(64, 2, taps, cfo=0.0, phase0=1.3)
    assert abs(np.angle(time_autocorr(y, 2))) < 1e-9


@pytest.mark.parametrize("seed", range(40))
def test_time_autocorr_multipath_closed_form(seed):
    """Noiseless autocorrelation equals sum|h|^2 * exp(j*2*pi*cfo/rate)."""
    rng = np.random.default_rng(seed)
    n_fft = int(rng.choice([64, 128]))
    rate = int(rng.choice([2, 8]))
    paths = int(rng.integers(1, 5))
    taps = rayleigh_taps(rng, paths, rng.uniform(0.5, 5.0))
    cfo = rng.uniform(-n_fft / 2 + 1, n_fft / 2 - 1)
    y = synth_rx(n_fft, rate, taps, cfo, rng.uniform(0, 2 * np.pi))
    power = np.sum(np.abs(taps) ** 2)
    expected = power * np.exp(2j * np.pi * cfo / rate)
    assert abs(time_autocorr(y, rate) - expected) / power < 1e-9


def test_time_autocorr_validation():
    with pytest.raises(ConfigError):
        time_autocorr(np.ones(64, dtype=complex), 3)
    with pytest.raises(ConfigError):
        time_autocorr(np.ones(64, dtype=complex), 1)


def test_estimate_ffo_basic():
    y = synth_rx(64, 2, [1.0], cfo=0.3, phase0=0.4)
    assert abs(estimate_ffo(y, 2) - 0.3) < 1e-9


def test_estimate_ffo_wraps_above_half_rate():
    # cfo = 1.2 with rate 2: residue 1 folds the estimate to 0.2 + 1 - 2
    y = synth_rx(64, 2, [1.0], cfo=1.2, phase0=0.0)
    assert abs(estimate_ffo(y, 2) - (-0.8)) < 1e-9


def test_estimate_ffo_integer_multiple_of_rate_is_invisible():
    y = synth_rx(128, 2, [1.0], cfo=20.0, phase0=0.0)
    assert abs(estimate_ffo(y, 2)) < 1e-9


def _branch_expected(eps: float, rate: int) -> tuple[float, str]:
    """Wrap prediction from the truncated integer/fraction/residue split."""
    eps_int = math.trunc(eps)
    eps_frac = eps - eps_int
    eps_r = eps_int - math.trunc(eps_int / rate) * rate
    if abs(eps_r) < rate / 2:
        return eps_frac + eps_r, "inner"
    if rate / 2 <= eps_r < rate:
        return eps_frac + eps_r - rate, "upper"
    if -rate < eps_r <= -rate / 2:
        return eps_frac + eps_r + rate, "lower"
    raise AssertionError(f"residue {eps_r} out of range")


@pytest.mark.parametrize("rate", [2, 8])
def test_estimate_ffo_branch_formulas(rate):
    """All three wrap branches of the residue analysis are hit and matched."""
    scale = rate / 2
    offsets = [0.3, -0.35, 0.45, 2 * scale + 0.3, -2 * scale - 0.3]
    offsets += [scale + 0.2, scale + 0.45, 3 * scale + 0.2]          # upper branch
    offsets += [-scale - 0.2, -scale - 0.45, -3 * scale - 0.2]       # lower branch
    seen = set()
    for eps in offsets:
        expected, branch = _branch_expected(eps, rate)
        seen.add(branch)
        y = synth_rx(64, rate, [1.0], cfo=eps, phase0=0.7)
        got = estimate_ffo(y, rate)
        assert abs(got - expected) < 1e-9, (eps, branch)
        assert -rate / 2 < got <= rate / 2
    assert seen == {"inner", "upper", "lower"}


def test_estimate_ffo_degenerate_input():
    """An all-zero symbol carries no phase: it reads NaN alone and as a row of a stack."""
    zeros = np.zeros(64, dtype=complex)
    assert math.isnan(estimate_ffo(zeros, 2))
    assert math.isnan(estimate_ffo(np.stack([synth_rx(64, 2, [1.0], 0.3, 0.4), zeros]), 2)[1])


def test_compensate_identity_and_inverse():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    np.testing.assert_array_equal(compensate(y, 0.0), y)
    np.testing.assert_allclose(compensate(compensate(y, 0.37), -0.37), y, atol=1e-12)


def test_compensate_removes_fractional_rotation():
    y = synth_rx(64, 2, [1.0], cfo=0.3, phase0=0.9)
    recovered = compensate(y, 0.3)
    ratio = recovered / synth_rx(64, 2, [1.0], cfo=0.0, phase0=0.0)
    # left with a constant unit-modulus scalar
    np.testing.assert_allclose(ratio, ratio[0], atol=1e-9)
    assert abs(abs(ratio[0]) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# frequency-domain stage
# ---------------------------------------------------------------------------


def test_freq_correlate_single_path_peak():
    y = synth_rx(128, 2, [1.0], cfo=20.0, phase0=0.0)
    mags = np.abs(freq_correlate(y, _dechirp(128, 2)))
    assert int(np.argmax(mags)) == 20
    assert mags[20] > 0.99
    others = np.delete(mags, 20)
    assert np.max(others) < 1e-9


@pytest.mark.parametrize("delay,q", [(1, 6), (2, 20), (3, 4), (1, -12)])
def test_freq_correlate_delayed_path_peak(delay, q):
    """A single path at delay m puts the tooth at (q - rate*m) mod N."""
    n_fft, rate = 128, 8
    taps = np.zeros(delay + 1, dtype=complex)
    taps[delay] = 1.0
    y = synth_rx(n_fft, rate, taps, cfo=float(q), phase0=0.2)
    mags = np.abs(freq_correlate(y, _dechirp(n_fft, rate)))
    assert int(np.argmax(mags)) == (q - rate * delay) % n_fft


def _comb_prediction(n_fft, rate, taps, q, phase0):
    """Comb form of the correlation, both sign branches written out."""
    pred = np.zeros(n_fft, dtype=complex)
    for m, h in enumerate(taps):
        if q >= 0:
            tau = (q - rate * m) % n_fft
        else:
            tau = (q - rate * m + n_fft) % n_fft
        pred[tau] += np.conj(h) * np.exp(-1j * np.pi * rate * m * m / n_fft - 1j * phase0)
    return pred


def _assert_comb(n_fft, rate, taps, q, phase0):
    """freq_correlate of the noiseless symbol equals _comb_prediction to 1e-9."""
    y = synth_rx(n_fft, rate, taps, cfo=float(q), phase0=phase0)
    got = freq_correlate(y, _dechirp(n_fft, rate))
    np.testing.assert_allclose(got, _comb_prediction(n_fft, rate, taps, q, phase0), atol=1e-9)


@pytest.mark.parametrize("seed", range(40))
def test_freq_correlate_matches_comb_closed_form(seed):
    rng = np.random.default_rng(1000 + seed)
    n_fft = int(rng.choice([64, 128]))
    rate = int(rng.choice([2, 8]))
    paths = int(rng.integers(1, 5))
    taps = rayleigh_taps(rng, paths, rng.uniform(0.5, 5.0))
    q = int(rng.integers(-n_fft // 2 + 1, n_fft // 2))
    _assert_comb(n_fft, rate, taps, q, rng.uniform(0, 2 * np.pi))


@st.composite
def _comb_cases(draw):
    """N from 16 to 256, every chirp rate of that N, L <= 16 taps and an integer offset.

    The offset runs over four wraps of N either way, so every residue is
    reached from both signs; synth_rx's phase, 2*pi*q*n/N, keeps its
    precision well inside atol there.
    """
    n_fft = draw(st.sampled_from([16, 32, 64, 128, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**64 - 1)))
    return {
        "n_fft": n_fft,
        "rate": draw(st.sampled_from(_rates(n_fft))),
        "taps": rayleigh_taps(rng, draw(st.integers(1, 16)), draw(st.floats(0.5, 5.0))),
        "q": draw(st.integers(-4 * n_fft, 4 * n_fft)),
        "phase0": draw(st.floats(0.0, 2 * np.pi)),
    }


@settings(max_examples=300)
@given(_comb_cases())
def test_freq_correlate_matches_comb_closed_form_over_its_domain(case):
    """The seeded cases above, widened to every N, rate, L <= 16 and offset _comb_cases draws.

    A noiseless symbol's correlation is the comb: conj(h_m) times a known
    phase at tooth (q - rate*m) mod N, and 0 elsewhere.
    """
    _assert_comb(**case)


def _definitional_correlation(y, f, rate):
    """R(tau) = (1/N) * sum_k X((k - tau) mod N) * conj(Z(k)), X and Z through the matrix f."""
    n_fft = y.shape[-1]
    x_f = f @ chirp(n_fft, rate)
    z_conj = np.conj(f @ y)
    k = np.arange(n_fft)
    return np.array(
        [np.sum(x_f[(k - tau) % n_fft] * z_conj) for tau in range(n_fft)]
    ) / n_fft


@pytest.mark.parametrize("rate", [2, 8])
@pytest.mark.parametrize("n_fft", [64, 1024])
def test_freq_correlate_matches_definitional_sum(n_fft, rate):
    """R(tau) = (1/N) * sum_k X((k - tau) mod N) * conj(Z(k)) on random input.

    X and Z come from an explicit DFT matrix, so the oracle shares no FFT,
    and no dechirp shortcut, with the implementation.  The pair form, a
    (T, 2, N) stack against two chirps in one call, meets the same oracle
    symbol by symbol.
    """
    rng = np.random.default_rng(n_fft + rate)
    f = dft_matrix(n_fft)
    y = rng.standard_normal(n_fft) + 1j * rng.standard_normal(n_fft)
    np.testing.assert_allclose(
        freq_correlate(y, _dechirp(n_fft, rate)),
        _definitional_correlation(y, f, rate), rtol=0, atol=1e-9,
    )
    rates = (rate, 2 * rate)
    stack = rng.standard_normal((3, 2, n_fft)) + 1j * rng.standard_normal((3, 2, n_fft))
    got = freq_correlate(stack, np.stack([_dechirp(n_fft, r) for r in rates]))
    assert got.shape == stack.shape
    for t in range(3):
        for s, r in enumerate(rates):
            np.testing.assert_allclose(
                got[t, s], _definitional_correlation(stack[t, s], f, r), rtol=0, atol=1e-9
            )


def test_freq_correlate_pair_matches_one_chirp_calls_bit_for_bit():
    """One DFT over the (T, 2, N) stack gives each symbol's single-chirp correlation exactly."""
    rng = np.random.default_rng(17)
    spec = _spec()
    stack = rng.standard_normal((11, 2, 128)) + 1j * rng.standard_normal((11, 2, 128))
    pair = freq_correlate(stack, spec.dechirp)
    assert np.array_equal(pair[:, 0], freq_correlate(stack[:, 0], spec.dechirp[0]))
    assert np.array_equal(pair[:, 1], freq_correlate(stack[:, 1], spec.dechirp[1]))


def test_freq_correlate_length_mismatch():
    with pytest.raises(ConfigError):
        freq_correlate(np.ones(64, dtype=complex), _dechirp(128, 2))


# ---------------------------------------------------------------------------
# integer resolution
# ---------------------------------------------------------------------------


def test_resolve_ifo_hand_traces():
    # peak pairs generated by (eps_i, m1, m2) = (20,0,0), (20,2,3), (-20,1,1)
    assert resolve_ifo(20, 20, 8, 128) == 20
    assert resolve_ifo(16, 124, 8, 128) == 20
    assert resolve_ifo(106, 100, 8, 128) == -20


@pytest.mark.parametrize("n_fft", [64, 128])
def test_resolve_ifo_exhaustive(n_fft):
    """Every (offset, delay pair) with |offset| < N/2 - r2 resolves exactly."""
    r1, r2, paths = 2, 8, 4
    for eps_i in range(-(n_fft // 2 - r2) + 1, n_fft // 2 - r2):
        for m1 in range(paths):
            for m2 in range(paths):
                loc_1 = (eps_i - r1 * m1) % n_fft
                loc_2 = (eps_i - r2 * m2) % n_fft
                assert resolve_ifo(loc_1, loc_2, r2, n_fft) == eps_i


def test_resolve_ifo_validation():
    with pytest.raises(ConfigError):
        resolve_ifo(-1, 0, 8, 128)
    with pytest.raises(ConfigError):
        resolve_ifo(0, 128, 8, 128)


def test_resolve_ifo_range():
    for loc_1 in range(0, 64, 7):
        for loc_2 in range(0, 64, 5):
            got = resolve_ifo(loc_1, loc_2, 8, 64)
            assert -32 < got <= 32


def _peak_walk(loc_1, loc_2, rate_2, n_fft):
    """The paper's peak walk, step by step: the oracle for resolve_ifo's closed form."""
    walked = loc_2
    if loc_1 < n_fft / 2:
        while walked >= n_fft / 2:
            walked = (walked + rate_2) % n_fft
        while walked < loc_1:
            walked += rate_2
    else:
        while walked < loc_1 and walked > rate_2:
            walked += rate_2
    resolved = walked % n_fft
    if resolved > n_fft / 2:
        resolved -= n_fft
    return resolved


def _rates(n_fft):
    """Every chirp rate of n_fft (signal._check_chirp): even powers of two up to n_fft/2."""
    return [2**k for k in range(1, n_fft.bit_length() - 1)]


@pytest.mark.parametrize("n_fft", [8, 16, 64, 128])
def test_resolve_ifo_equals_peak_walk(n_fft):
    """The closed form lands where the walk does on every pair of peak bins."""
    for rate_2 in _rates(n_fft):
        for loc_1 in range(n_fft):
            for loc_2 in range(n_fft):
                got = resolve_ifo(loc_1, loc_2, rate_2, n_fft)
                assert type(got) is int
                assert got == _peak_walk(loc_1, loc_2, rate_2, n_fft), (rate_2, loc_1, loc_2)


def _separable_configs():
    """Every (N, r1, r2, L) with 8 <= N <= 512 that the separability rule r1*L <= r2 < N/L admits.

    r2 = N/2 is left out: no offset lies inside |q| < N/2 - r2 there.
    """
    for n_fft in (8, 16, 32, 64, 128, 256, 512):
        for r1 in _rates(n_fft):
            for r2 in _rates(n_fft)[:-1]:
                for paths in range(1, n_fft):
                    if not r1 * paths <= r2 < n_fft / paths:
                        continue
                    marks = ()
                    if r2 * (paths - 1) > n_fft / 2:
                        marks = pytest.mark.xfail(
                            strict=True,
                            reason="a rate-2 path delay r2*(L-1) > N/2 can leave loc_2 in "
                            "loc_1's half and above it, where the walk does not move it: a "
                            "confident wrong offset (ROADMAP item 1)",
                        )
                    yield pytest.param(n_fft, r1, r2, paths, marks=marks)


@pytest.mark.parametrize("n_fft,r1,r2,paths", list(_separable_configs()))
def test_resolve_ifo_recovers_every_comb_pair(n_fft, r1, r2, paths):
    """Peaks (q - r1*m1, q - r2*m2) mod N resolve to q for every |q| < N/2 - r2 and path pair."""
    for q in range(-(n_fft // 2 - r2) + 1, n_fft // 2 - r2):
        for m1 in range(paths):
            for m2 in range(paths):
                loc_1 = (q - r1 * m1) % n_fft
                loc_2 = (q - r2 * m2) % n_fft
                assert resolve_ifo(loc_1, loc_2, r2, n_fft) == q, (q, m1, m2)


# ---------------------------------------------------------------------------
# real scalings: each kernel against the complex numpy form it replaced
# ---------------------------------------------------------------------------


def _bits(a):
    """The IEEE-754 bit patterns of a complex array, to compare two arrays bit for bit."""
    return np.ascontiguousarray(a).view(np.uint64)


def _wide(rng, shape):
    """Complex samples whose real and imaginary parts each span 1e-300..1e300, either sign."""
    parts = rng.choice([-1.0, 1.0], (2, *shape)) * 10.0 ** rng.uniform(-300.0, 300.0, (2, *shape))
    return parts[0] + 1j * parts[1]


def _old_freq_correlate(y_comp, conj_x):
    return np.conj(np.fft.fft(conj_x * y_comp, norm="ortho")) / np.sqrt(conj_x.shape[-1])


def _old_compensate(y, ffo):
    n = np.arange(y.shape[-1])
    return y * np.exp(-2j * np.pi * np.asarray(ffo)[..., None] * n / y.shape[-1])


@pytest.mark.parametrize("n_fft", [16, 128, 1024])
def test_freq_correlate_has_the_bits_of_the_complex_division(n_fft):
    """The conjugate times 1/sqrt(N) equals numpy's conj(.) / sqrt(N), bit for bit.

    Each symbol is scaled by its own 10**u, u uniform on [-300, 300], so the
    correlations span that range too.  Where a part is exactly zero, only
    the value matches (==): the two forms may give it opposite signs.
    """
    rng = np.random.default_rng(n_fft)
    conj_x = np.conj(np.stack([chirp(n_fft, 2), chirp(n_fft, 8)]))
    stack = _wide(rng, (40, 2, 1)) * (rng.standard_normal((40, 2, n_fft))
                                      + 1j * rng.standard_normal((40, 2, n_fft)))
    got = freq_correlate(stack, conj_x)
    np.testing.assert_array_equal(_bits(got), _bits(_old_freq_correlate(stack, conj_x)))
    np.testing.assert_array_equal(
        _bits(freq_correlate(stack[0, 1], conj_x[1])),
        _bits(_old_freq_correlate(stack[0, 1], conj_x[1])),
    )
    stack[:, 1] = 0
    np.testing.assert_array_equal(freq_correlate(stack, conj_x), _old_freq_correlate(stack, conj_x))


@pytest.mark.parametrize("length", [64, 96, 1000, 1023, 1024])
def test_compensate_has_the_bits_of_the_complex_phase(length):
    """A float64 phase and one exp give the bits of the complex phase expression, at any length.

    Both the samples and the offsets span 1e-300..1e300 in magnitude.
    """
    rng = np.random.default_rng(length)
    y = _wide(rng, (30, 2, length))
    ffo = rng.choice([-1.0, 1.0], (30, 1)) * 10.0 ** rng.uniform(-300.0, 300.0, (30, 1))
    ffo[:10] = rng.uniform(-4.0, 4.0, (10, 1))
    np.testing.assert_array_equal(_bits(compensate(y, ffo)), _bits(_old_compensate(y, ffo)))
    for scalar in (0.37, -1.0, 0.0, float(ffo[-1, 0])):
        np.testing.assert_array_equal(
            _bits(compensate(y[0, 0], scalar)), _bits(_old_compensate(y[0, 0], scalar))
        )


# ---------------------------------------------------------------------------
# full estimator
# ---------------------------------------------------------------------------


def _transmit(spec, cfo, seed, mode="varying", paths=4):
    """The received frame stream of one noiseless transmission."""
    profile = ChannelProfile(path_count=paths, decay=2.0)
    rng = np.random.default_rng(seed)
    return transmit(profile=profile, frame=spec.frame, rng=rng,
                    cfo=cfo, snr_db=np.inf, mode=mode).stream


@pytest.mark.parametrize("cfo", [20.0, 20.3, -20.0, -20.4, 0.5, 47.0])
def test_estimate_cfo_noiseless_exact(cfo):
    spec = _spec()
    for seed in range(5):
        est = estimate_cfo(_transmit(spec, cfo, seed), spec)
        assert not est.failed
        assert abs(est.total - cfo) < 1e-6
        assert est.total == est.ifo_residual + est.ffo


def test_estimate_cfo_reports_peaks():
    spec = _spec()
    est = estimate_cfo(_transmit(spec, 20.0, 3, paths=1), spec)
    assert est.peaks == (20, 20) and all(type(loc) is int for loc in est.peaks)
    assert est.profiles.shape == (2, 128)


def test_estimate_cfo_phase_invariant():
    """A constant unit-modulus factor on the input changes nothing that matters."""
    spec = _spec()
    rx = _transmit(spec, 20.3, 11)
    base = estimate_cfo(rx, spec)
    for theta in (0.4, 1.9, -2.5):
        est = estimate_cfo(rx * np.exp(1j * theta), spec)
        assert est.ifo_residual == base.ifo_residual
        assert abs(est.ffo - base.ffo) < 1e-12


@pytest.mark.parametrize("n_fft", [64, 128])
def test_estimate_cfo_integer_range(n_fft):
    """Noiseless recovery over the whole |cfo| < N/2 - r2 integer range."""
    spec = _spec(n_fft=n_fft)
    for cfo in range(-(n_fft // 2 - 8) + 1, n_fft // 2 - 8, 3):
        est = estimate_cfo(_transmit(spec, float(cfo), 1000 + cfo), spec)
        assert abs(est.total - cfo) < 1e-6, cfo


# Every (N, r1, r2, L) with 16 <= N <= 256 and L <= 16 inside the peak walk's
# stated domain: r1*L <= r2 < N/L, r2*(L-1) <= N/2, and r2 < N/2 so that some
# offset satisfies |q| < N/2 - r2.  L reaches 8, at N = 256.
_WALK_DOMAIN = [
    (n_fft, r1, r2, paths)
    for n_fft in (16, 32, 64, 128, 256)
    for r1 in _rates(n_fft)
    for r2 in _rates(n_fft)[:-1]
    for paths in range(1, 17)
    if r1 * paths <= r2 < n_fft / paths and r2 * (paths - 1) <= n_fft / 2
]


@st.composite
def _noiseless_cases(draw):
    """A config of the walk's domain, a CP that absorbs the channel and an offset it resolves.

    The path count is drawn first, so that every L of the domain is drawn often.
    """
    paths = draw(st.integers(1, max(config[-1] for config in _WALK_DOMAIN)))
    n_fft, r1, r2, _ = draw(st.sampled_from([c for c in _WALK_DOMAIN if c[-1] == paths]))
    ffo_stage = draw(st.booleans())
    bound = n_fft // 2 - r2
    offset = (st.floats(-bound, bound, exclude_min=True, exclude_max=True) if ffo_stage
              else st.integers(1 - bound, bound - 1).map(float))
    return {
        "spec": PreambleSpec(n_fft, r1, r2, draw(st.integers(paths - 1, n_fft))),
        "profile": ChannelProfile(paths, draw(st.floats(0.1, 1e6))),
        "mode": draw(st.sampled_from(["varying", "static"])),
        "ffo_stage": ffo_stage,
        "offset": draw(offset),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }


@settings(max_examples=300)
@given(_noiseless_cases())
def test_noiseless_transmit_is_estimated_exactly_over_the_walk_domain(case):
    """A noiseless frame's offset comes back to 1e-6, unfailed, anywhere in the walk's domain.

    With the fractional stage the offsets are floats, without it integers.
    """
    spec = case["spec"]
    rx = transmit(spec.frame, case["profile"], case["offset"], math.inf,
                  np.random.default_rng(case["seed"]), case["mode"])
    est = estimate_cfo(rx.stream, spec, ffo_stage=case["ffo_stage"])
    assert not est.failed
    assert abs(est.total - case["offset"]) < 1e-6, (est.total, est.peaks)


def test_estimate_cfo_without_ffo_stage():
    spec = _spec()
    est = estimate_cfo(_transmit(spec, 20.0, 5), spec, ffo_stage=False)
    assert est.ffo == 0.0
    assert est.ifo_residual == 20
    assert est.total == 20.0


def test_estimate_cfo_batch_rows_match_single_frames():
    """Each row of a stacked pass equals the one-frame estimate; a dead row reads NaN alone."""
    spec = _spec(n_fft=64)
    frames = [_transmit(spec, cfo, seed) for seed, cfo in enumerate((20.3, -13.6, 7.0, 0.4))]
    stack = np.stack(frames + [np.zeros(160, dtype=complex)])
    for ffo_stage in (True, False):
        report = estimate_cfo_batch(stack, spec, ffo_stage)
        for i, rx in enumerate(frames):
            est = estimate_cfo(rx, spec, ffo_stage)
            assert (report.ffo[i], report.ifo[i]) == (est.ffo, est.ifo_residual)
            assert tuple(report.peaks[i]) == est.peaks
            np.testing.assert_array_equal(report.profiles[i], est.profiles)
        assert math.isnan(report.ffo[-1])
    with pytest.raises(DegenerateSignalError):
        estimate_cfo(np.zeros(160, dtype=complex), spec)


# Each batch form beside its one-frame form.
_ESTIMATORS = {
    "proposed": (estimate_cfo_batch, estimate_cfo),
    "sca": (sca_estimate_batch, sca_estimate),
}


def _row_bits(est):
    """Everything a one-frame estimate reports, floats as their bit patterns."""
    total = None if est.total is None else est.total.hex()
    return (est.ffo.hex(), est.ifo_residual, total, est.peaks, est.failed,
            est.profiles.shape, est.profiles.tobytes())


@pytest.mark.parametrize("ffo_stage", [True, False])
@pytest.mark.parametrize("dead", ["both", "first", "second"])
def test_a_symbol_without_signal_is_degenerate(ffo_stage, dead):
    """A symbol without signal carries no offset, for either estimator, whichever stages run.

    In a stack its row reads NaN beside good rows, which keep their bits;
    alone it raises, as the fractional stage does for a symbol without
    phase.  Schmidl-Cox with a zero first symbol and the fractional stage
    off reads B(g) = 0 at every shift: it too is degenerate.
    """
    spec = _spec()
    block = spec.n_fft + spec.cp_len
    cfo = 20.3 if ffo_stage else 20.0
    pre = sca_build_preamble(spec.n_fft, spec.cp_len, np.random.default_rng(3))
    sca_frame = transmit(pre.frame, ChannelProfile(4, 2.0), cfo, 10.0, np.random.default_rng(5),
                         "static").stream
    for name, receiver, frame in (("proposed", spec, _transmit(spec, cfo, 5)), ("sca", pre, sca_frame)):
        batch, one_frame = _ESTIMATORS[name]
        rx = frame.copy()
        if dead != "second":
            rx[:block] = 0
        if dead != "first":
            rx[block:] = 0
        report = batch(np.stack([frame, rx, frame]), receiver, ffo_stage)
        assert math.isnan(report.ffo[1]) and not np.isnan(report.ffo[[0, 2]]).any(), name
        want = _row_bits(one_frame(frame, receiver, ffo_stage))
        assert _row_bits(report.row(0)) == _row_bits(report.row(2)) == want, name
        with pytest.raises(DegenerateSignalError, match="no usable phase or energy"):
            one_frame(rx, receiver, ffo_stage)


@st.composite
def _batch_cases(draw):
    """A stack of received frames for one estimator, maybe with one dead row."""
    n_fft = draw(st.sampled_from([16, 32, 64, 128, 256]))
    rates = [r for r in (2, 4, 8, 16, 32, 64, 128) if r <= n_fft // 2]
    r1 = draw(st.sampled_from(rates[:-1]))
    r2 = draw(st.sampled_from([r for r in rates if r > r1]))
    paths = draw(st.integers(1, 8))
    ffo_stage = draw(st.booleans())
    rows = draw(st.integers(2, 5))
    bound = n_fft // 2 - 1
    offset = st.floats(-bound, bound) if ffo_stage else st.integers(-bound, bound).map(float)
    dead = st.tuples(st.integers(0, rows - 1), st.sampled_from(["all", "first", "second"]))
    return {
        "estimator": draw(st.sampled_from(sorted(_ESTIMATORS))),
        "n_fft": n_fft,
        "rates": (r1, r2),
        "paths": paths,
        "cp": draw(st.integers(paths - 1, 16)),
        "mode": draw(st.sampled_from(["varying", "static"])),
        "snr_db": draw(st.just(math.inf) | st.floats(-10.0, 30.0)),
        "ffo_stage": ffo_stage,
        "offsets": draw(st.lists(offset, min_size=rows, max_size=rows)),
        "dead": draw(st.none() | dead),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=200)
# A noiseless offset of 0 without the fractional stage: both peaks sit at bin
# 0 with a nonzero value, which is not the all-zero profile of a dead symbol.
@example({"estimator": "proposed", "n_fft": 64, "rates": (2, 8), "paths": 1, "cp": 16,
          "mode": "static", "snr_db": math.inf, "ffo_stage": False, "offsets": [0.0, 5.0],
          "dead": None, "seed": 3})
@given(_batch_cases())
def test_batch_rows_are_the_one_frame_estimates(case):
    """Row t of a batch report is the one-frame estimate of frame t alone, bit for bit.

    A dead row (all zero, or one symbol zero) raises on its own row only.
    Each row's peaks are its profiles' argmax bins, and its integer estimate
    is the one those peaks give.
    """
    n_fft, (r1, r2), cp = case["n_fft"], case["rates"], case["cp"]
    rng = np.random.default_rng(case["seed"])
    if case["estimator"] == "proposed":
        spec = PreambleSpec(n_fft, r1, r2, cp)
        frame, receiver = spec.frame, spec
    else:
        pre = sca_build_preamble(n_fft, cp, rng)
        frame, receiver = pre.frame, pre
    profile = ChannelProfile(path_count=case["paths"], decay=2.0)
    stack = np.stack([
        transmit(frame, profile, cfo, case["snr_db"], rng, case["mode"]).stream
        for cfo in case["offsets"]
    ])
    dead_row, kind = case["dead"] or (None, None)
    if kind is not None:
        block = n_fft + cp
        stack[dead_row, block if kind == "second" else 0 : block if kind == "first" else None] = 0
    batch, one_frame = _ESTIMATORS[case["estimator"]]
    report = batch(stack, receiver, ffo_stage=case["ffo_stage"])
    for t, row in enumerate(stack):
        if t == dead_row:
            with pytest.raises(DegenerateSignalError, match="no usable phase or energy"):
                report.row(t)
            with pytest.raises(DegenerateSignalError, match="no usable phase or energy"):
                one_frame(row, receiver, ffo_stage=case["ffo_stage"])
            continue
        est = report.row(t)
        assert _row_bits(est) == _row_bits(one_frame(row, receiver, ffo_stage=case["ffo_stage"]))
        assert est.peaks == tuple(np.argmax(est.profiles, axis=-1).tolist())
        if case["estimator"] == "proposed":
            assert est.ifo_residual == resolve_ifo(*est.peaks, r2, n_fft)
        else:
            assert est.ifo_residual == 2 * (est.peaks[0] - n_fft // 4)


_ONE_FRAME_SHAPES = [(0,), (64,), (159,), (161,), (320,), (1, 160)]
_BATCH_SHAPES = [(2, 0), (2, 128), (2, 159), (2, 161), (2, 2, 64), (160,)]


@pytest.mark.parametrize("form,shape", [
    *((form, shape) for form in ("estimate_cfo", "sca_estimate") for shape in _ONE_FRAME_SHAPES),
    *((form, shape) for form in ("estimate_cfo_batch", "sca_estimate_batch")
      for shape in _BATCH_SHAPES),
])
def test_stream_that_is_not_a_frame_is_rejected(form, shape):
    """Both estimators read frames of 2*(N+cp) samples, one per row in the batch forms."""
    spec = _spec(n_fft=64)
    pre = sca_build_preamble(64, 16, np.random.default_rng(1))
    estimate = {
        "estimate_cfo": lambda y: estimate_cfo(y, spec),
        "estimate_cfo_batch": lambda y: estimate_cfo_batch(y, spec),
        "sca_estimate": lambda y: sca_estimate(y, pre),
        "sca_estimate_batch": lambda y: sca_estimate_batch(y, pre),
    }[form]
    with pytest.raises(ConfigError, match=r"2\*\(n_fft \+ cp_len\) = 160 samples"):
        estimate(np.ones(shape, dtype=complex))


def test_estimate_ffo_stack_marks_degenerate_rows():
    y = np.stack([synth_rx(64, 2, [1.0], 0.3, 0.4), np.zeros(64), synth_rx(64, 2, [1.0], -0.7, 1.0)])
    got = estimate_ffo(y, 2)
    assert got[0] == estimate_ffo(y[0], 2) and got[2] == estimate_ffo(y[2], 2)
    assert math.isnan(got[1])


# ---------------------------------------------------------------------------
# offset wrapping
# ---------------------------------------------------------------------------


def test_wrap_offset_principal_range():
    assert wrap_offset(20.0, 2) == 0.0
    assert wrap_offset(1.2, 2) == pytest.approx(-0.8)
    assert wrap_offset(-1.2, 2) == pytest.approx(0.8)
    assert wrap_offset(1.0, 2) == 1.0
    assert wrap_offset(-1.0, 2) == 1.0
    assert wrap_offset(21.0, 2) == 1.0


@st.composite
def _wrap_cases(draw):
    """An even rate and a finite offset: any float, a branch edge ±r/2, ±0.0, or near a multiple of r."""
    rate = 2 * draw(st.integers(1, 2**20))
    k = draw(st.integers(-2**20, 2**20))
    eps = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([rate / 2, -rate / 2, 0.0, -0.0]),
        st.sampled_from([-0.5, 0.0, 0.5]).map(lambda half: (k + half) * rate),
    ))
    return rate, eps


@settings(max_examples=500)
@given(_wrap_cases())
@example((2, -0.0))
@example((2, 1.0))
@example((8, -4.0))
def test_wrap_offset_lands_in_its_principal_range(case):
    """wrap_offset(eps, r) lies in (-r/2, r/2] and differs from eps by a whole number of r, exactly."""
    rate, eps = case
    wrapped = wrap_offset(eps, rate)
    assert -rate / 2 < wrapped <= rate / 2
    assert (Fraction(eps) - Fraction(wrapped)) % rate == 0


@st.composite
def _ffo_cases(draw):
    """A chirp symbol of N from 16 to 256 at any rate it takes, L <= 16 taps and an offset in (-N/2, N/2).

    The offset is any float there or a multiple of r/2, a branch edge of the wrap.
    """
    n_fft = draw(st.sampled_from([16, 32, 64, 128, 256]))
    rate = draw(st.sampled_from(_rates(n_fft)))
    rng = np.random.default_rng(draw(st.integers(0, 2**64 - 1)))
    cfo = draw(st.one_of(
        st.floats(-n_fft / 2, n_fft / 2, exclude_min=True, exclude_max=True),
        st.integers(1 - n_fft // rate, n_fft // rate - 1).map(lambda k: k * rate / 2),
    ))
    return {
        "n_fft": n_fft,
        "rate": rate,
        "taps": rayleigh_taps(rng, draw(st.integers(1, 16)), draw(st.floats(0.5, 5.0))),
        "cfo": cfo,
        "phase0": draw(st.floats(0.0, 2 * np.pi)),
    }


@settings(max_examples=300)
@given(_ffo_cases())
@example({"n_fft": 64, "rate": 8, "taps": np.array([1.0]), "cfo": 4.0, "phase0": 0.0})
def test_noiseless_estimate_ffo_is_the_wrapped_offset(case):
    """A noiseless symbol's fractional estimate is wrap_offset(cfo, r) to 1e-9, in (-r/2, r/2].

    The distance is taken around the circle of period r: at the branch edge
    an estimate of -r/2 + 1e-15 is within 1e-9 of r/2.
    """
    n_fft, rate, taps, cfo, phase0 = case.values()
    got = estimate_ffo(synth_rx(n_fft, rate, taps, cfo, phase0), rate)
    assert -rate / 2 < got <= rate / 2
    assert abs(wrap_offset(got - wrap_offset(cfo, rate), rate)) < 1e-9
