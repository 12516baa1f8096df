"""Two-stage estimator: autocorrelation identities, comb correlation, peak walk."""

import math

import numpy as np
import pytest

from cfolab.channel import ChannelProfile, ImpairmentSpec, ReceivedFrame, transmit
from cfolab.errors import ConfigError, DegenerateSignalError
from cfolab.estimator import (
    compensate,
    decompose_cfo,
    estimate_cfo,
    estimate_cfo_batch,
    estimate_ffo,
    freq_correlate,
    resolve_ifo,
    time_autocorr,
    wrap_offset,
)
from cfolab.signal import CazacParams, PreambleSpec, build_preamble

from conftest import chirp, dft_matrix, rayleigh_taps, synth_rx


def _spec(n_fft=128, cp=16):
    return PreambleSpec(CazacParams(n_fft, 2), CazacParams(n_fft, 8), cp)


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
    with pytest.raises(DegenerateSignalError):
        estimate_ffo(np.zeros(64, dtype=complex), 2)


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
    mags = np.abs(freq_correlate(y, CazacParams(128, 2)))
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
    mags = np.abs(freq_correlate(y, CazacParams(n_fft, rate)))
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


@pytest.mark.parametrize("seed", range(40))
def test_freq_correlate_matches_comb_closed_form(seed):
    rng = np.random.default_rng(1000 + seed)
    n_fft = int(rng.choice([64, 128]))
    rate = int(rng.choice([2, 8]))
    paths = int(rng.integers(1, 5))
    taps = rayleigh_taps(rng, paths, rng.uniform(0.5, 5.0))
    q = int(rng.integers(-n_fft // 2 + 1, n_fft // 2))
    phase0 = rng.uniform(0, 2 * np.pi)
    y = synth_rx(n_fft, rate, taps, cfo=float(q), phase0=phase0)
    got = freq_correlate(y, CazacParams(n_fft, rate))
    np.testing.assert_allclose(got, _comb_prediction(n_fft, rate, taps, q, phase0), atol=1e-9)


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
        freq_correlate(y, CazacParams(n_fft, rate)),
        _definitional_correlation(y, f, rate), rtol=0, atol=1e-9,
    )
    rates = (rate, 2 * rate)
    stack = rng.standard_normal((3, 2, n_fft)) + 1j * rng.standard_normal((3, 2, n_fft))
    got = freq_correlate(stack, tuple(CazacParams(n_fft, r) for r in rates))
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
    pair = freq_correlate(stack, (spec.params_1, spec.params_2))
    assert np.array_equal(pair[:, 0], freq_correlate(stack[:, 0], spec.params_1))
    assert np.array_equal(pair[:, 1], freq_correlate(stack[:, 1], spec.params_2))


def test_freq_correlate_length_mismatch():
    with pytest.raises(ConfigError):
        freq_correlate(np.ones(64, dtype=complex), CazacParams(128, 2))


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
    """Every chirp rate CazacParams accepts for n_fft: even powers of two up to n_fft/2."""
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
                            "confident wrong offset (ROADMAP item 4)",
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
# full estimator
# ---------------------------------------------------------------------------


def _transmit(spec, cfo, seed, mode="varying", paths=4):
    profile = ChannelProfile(path_count=paths, decay=2.0, mode=mode)
    rng = np.random.default_rng(seed)
    return transmit(profile=profile, frame=build_preamble(spec), rng=rng,
                    imp=ImpairmentSpec(cfo=cfo, snr_db=np.inf))


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
    assert est.peaks.loc_1 == 20 and est.peaks.loc_2 == 20
    assert est.peaks.corr_1.shape == (128,) and est.peaks.corr_2.shape == (128,)


def test_estimate_cfo_phase_invariant():
    """A constant unit-modulus factor on the input changes nothing that matters."""
    spec = _spec()
    rx = _transmit(spec, 20.3, 11)
    base = estimate_cfo(rx, spec)
    for theta in (0.4, 1.9, -2.5):
        rotated = ReceivedFrame(
            n_fft=rx.n_fft,
            cp_len=rx.cp_len,
            stream=rx.stream * np.exp(1j * theta),
            symbols=tuple(s * np.exp(1j * theta) for s in rx.symbols),
        )
        est = estimate_cfo(rotated, spec)
        assert est.ifo_residual == base.ifo_residual
        assert abs(est.ffo - base.ffo) < 1e-12


@pytest.mark.parametrize("n_fft", [64, 128])
def test_estimate_cfo_integer_range(n_fft):
    """Noiseless recovery over the whole |cfo| < N/2 - r2 integer range."""
    spec = _spec(n_fft=n_fft)
    for cfo in range(-(n_fft // 2 - 8) + 1, n_fft // 2 - 8, 3):
        est = estimate_cfo(_transmit(spec, float(cfo), 1000 + cfo), spec)
        assert abs(est.total - cfo) < 1e-6, cfo


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
    stack = np.stack([np.stack(rx.symbols) for rx in frames] + [np.zeros((2, 64), dtype=complex)])
    for ffo_stage in (True, False):
        ffo, ifo, peaks = estimate_cfo_batch(stack, spec, ffo_stage)
        for i, rx in enumerate(frames):
            est = estimate_cfo(rx, spec, ffo_stage)
            assert (ffo[i], ifo[i]) == (est.ffo, est.ifo_residual)
            assert (peaks.loc_1[i], peaks.loc_2[i]) == (est.peaks.loc_1, est.peaks.loc_2)
            np.testing.assert_array_equal(peaks.corr_1[i], est.peaks.corr_1)
            np.testing.assert_array_equal(peaks.corr_2[i], est.peaks.corr_2)
        assert math.isnan(ffo[-1]) == ffo_stage
    dead = ReceivedFrame(n_fft=64, cp_len=16, stream=np.zeros(160, dtype=complex),
                         symbols=(np.zeros(64, dtype=complex), np.zeros(64, dtype=complex)))
    with pytest.raises(DegenerateSignalError):
        estimate_cfo(dead, spec)


def test_estimate_ffo_stack_marks_degenerate_rows():
    y = np.stack([synth_rx(64, 2, [1.0], 0.3, 0.4), np.zeros(64), synth_rx(64, 2, [1.0], -0.7, 1.0)])
    got = estimate_ffo(y, 2)
    assert got[0] == estimate_ffo(y[0], 2) and got[2] == estimate_ffo(y[2], 2)
    assert math.isnan(got[1])


# ---------------------------------------------------------------------------
# decomposition helpers
# ---------------------------------------------------------------------------


def test_decompose_reconstructs_exactly():
    rng = np.random.default_rng(14)
    for _ in range(200):
        eps = float(rng.uniform(-60, 60))
        for rate in (2, 8):
            d = decompose_cfo(eps, rate)
            assert d.floor_div * rate + d.eps_mod_r + d.eps_frac == pytest.approx(eps, abs=1e-12)
            assert -0.5 <= d.eps_frac < 0.5
            assert d.eps_int == math.floor(eps + 0.5)


def test_wrap_offset_principal_range():
    assert wrap_offset(20.0, 2) == 0.0
    assert wrap_offset(1.2, 2) == pytest.approx(-0.8)
    assert wrap_offset(-1.2, 2) == pytest.approx(0.8)
    assert wrap_offset(1.0, 2) == 1.0
    assert wrap_offset(-1.0, 2) == 1.0
    assert wrap_offset(21.0, 2) == 1.0
