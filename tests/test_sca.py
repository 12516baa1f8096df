"""Schmidl-Cox baseline: preamble structure, metric correctness, channel sensitivity."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfolab import sca
from cfolab.channel import ChannelProfile, transmit
from cfolab.errors import DegenerateSignalError
from cfolab.sca import sca_build_preamble, sca_estimate, sca_estimate_batch
from cfolab.signal import dft, idft
from cfolab.simlab import ExperimentConfig, run_trial


def _preamble(n_fft=128, cp=16, seed=1):
    return sca_build_preamble(n_fft, cp, np.random.default_rng(seed))


def _symbols(frame):
    """The frame's two CP-stripped symbols, one row each."""
    return frame.samples.reshape(2, frame.block_len)[:, frame.cp_len :]


def test_preamble_halves_identical():
    pre = _preamble()
    s1 = _symbols(pre.frame)[0]
    np.testing.assert_allclose(s1[:64], s1[64:], atol=1e-12)


def test_preamble_unit_average_power():
    pre = _preamble()
    for sym in _symbols(pre.frame):
        assert np.mean(np.abs(sym) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_preamble_odd_bins_empty():
    pre = _preamble(n_fft=64)
    spectrum = np.fft.fft(_symbols(pre.frame)[0])
    assert np.max(np.abs(spectrum[1::2])) < 1e-9


def test_preamble_symbols_have_the_bits_of_the_division_by_their_rms():
    """Each symbol times 1/rms equals the symbol divided by its rms, the form this replaced."""
    for n_fft in (16, 64, 128, 1024):
        for seed in range(4):
            pre = _preamble(n_fft=n_fft, seed=seed)
            spectrum_1 = np.zeros(n_fft, dtype=complex)
            spectrum_1[0::2] = pre.pn_even_1
            for got, spectrum in zip(_symbols(pre.frame), (spectrum_1, pre.pn_2)):
                sym = idft(spectrum)
                want = sym / np.sqrt(np.mean(np.abs(sym) ** 2))
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _reference_preamble(n_fft, rng):
    """The PN draws, v, the two unit-power symbols and the draw count, built the plain way.

    A complex exp per drawn symbol, one idft per symbol, and the rejection
    test on np.fft's unnormalized transforms of v.
    """
    half = n_fft // 2
    draws = 0
    while True:
        draws += 1
        pn_even_1 = np.exp(1j * (np.pi / 2.0 * rng.integers(0, 4, half) + np.pi / 4.0))
        pn_2 = np.exp(1j * (np.pi / 2.0 * rng.integers(0, 4, n_fft) + np.pi / 4.0))
        v = pn_2[0::2] / pn_even_1
        autocorr = np.abs(np.fft.ifft(np.abs(np.fft.fft(v)) ** 2))
        if autocorr[1:].max() < half * (1.0 - 1e-9):
            break
    spectrum_1 = np.zeros(n_fft, dtype=np.complex128)
    spectrum_1[0::2] = pn_even_1
    symbols = []
    for spectrum in (spectrum_1, pn_2):
        sym = idft(spectrum)
        sym *= 1.0 / np.sqrt(np.mean(np.abs(sym) ** 2))
        symbols.append(sym)
    return pn_even_1, pn_2, v, symbols, draws


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("n_fft", [16, 64, 128, 1024])
def test_preamble_has_the_bits_of_the_plain_construction(n_fft):
    """Table-drawn QPSK, one stacked idft and the kernel-read rejection test change no bit.

    Over 500 seeds, with and without a prefix: pn_even_1, pn_2, v and the
    frame equal the plain construction's (its frame joined here, each
    symbol behind its own last cp samples), the generator ends in the same
    state, and the stored kernel is conj(dft(v)) * sqrt(N/2).  At N = 16
    some seeds are redrawn, so the rejection test decides as before.
    """
    redrawn = 0
    for seed in range(500):
        ref_rng = np.random.default_rng(seed)
        pn_even_1, pn_2, v, symbols, draws = _reference_preamble(n_fft, ref_rng)
        redrawn += draws > 1
        for cp in (0, 16):
            rng = np.random.default_rng(seed)
            pre = sca_build_preamble(n_fft, cp, rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state, (seed, cp)
            frame = np.concatenate([part for sym in symbols for part in (sym[n_fft - cp :], sym)])
            for got, want in ((pre.pn_even_1, pn_even_1), (pre.pn_2, pn_2), (pre.v, v),
                              (pre.frame.samples, frame),
                              (pre.kernel, np.conj(dft(v)) * math.sqrt(n_fft // 2))):
                np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=f"seed {seed}, cp {cp}")
    if n_fft == 16:
        assert redrawn > 0


def test_preamble_deterministic():
    a = _preamble(seed=5)
    b = _preamble(seed=5)
    np.testing.assert_array_equal(a.frame.samples, b.frame.samples)
    np.testing.assert_array_equal(a.v, b.v)


def test_preamble_differential_sequence():
    pre = _preamble(n_fft=64)
    np.testing.assert_allclose(pre.v * pre.pn_even_1, pre.pn_2[0::2], atol=1e-12)
    assert np.max(np.abs(np.abs(pre.v) - 1.0)) < 1e-12


def test_preamble_differential_sequence_unambiguous():
    """No nonzero circular shift of v matches v up to a phase, so B(g) has one noiseless peak."""
    for seed in (322900229, *range(300)):
        v = _preamble(n_fft=16, seed=seed).v
        for g in range(1, 8):
            assert abs(np.vdot(v, np.roll(v, -g))) < 8 - 1e-9, (seed, g)


@pytest.mark.parametrize("n_fft,repeating", [(2, 0), (4, 8), (8, 32), (16, 512)])
def test_integer_redraw_rule_decides_as_the_fft_rule_on_every_sequence(n_fft, repeating):
    """_repeats on every difference sequence d of N/2 QPSK indices is the FFT autocorrelation rule.

    The rule it replaced: v = 1j**d repeats under a nonzero circular shift
    when |IFFT(|FFT(v)|^2)| reaches N/2, less a 1e-9 margin, at a nonzero lag.
    At N = 16, 512 of the 4**8 sequences repeat, 1 in 128.
    """
    half = n_fft // 2
    d = np.array(list(itertools.product(range(4), repeat=half)))
    v = sca._QPSK[d] / sca._QPSK[0]
    autocorr = np.abs(np.fft.ifft(np.abs(np.fft.fft(v, axis=-1)) ** 2, axis=-1))
    want = autocorr[:, 1:].max(axis=-1, initial=0.0) >= half * (1.0 - 1e-9)
    got = sca._repeats(d)
    np.testing.assert_array_equal(got, want)
    assert int(got.sum()) == repeating


def _rx(pre, cfo, seed, mode="static", snr_db=np.inf, paths=4):
    """The received frame stream of one transmission of the preamble."""
    profile = ChannelProfile(path_count=paths, decay=2.0)
    return transmit(pre.frame, profile, cfo, snr_db, np.random.default_rng(seed), mode=mode).stream


def test_metric_finds_every_even_shift():
    """Noiseless static channel: argmax of the shift metric equals the applied shift."""
    pre = _preamble(n_fft=64)
    for g0 in range(-15, 16):
        est = sca_estimate(_rx(pre, 2.0 * g0, seed=100 + g0), pre)
        assert est.ifo_residual == 2 * g0, g0


def test_end_to_end_static_noiseless():
    pre = _preamble()
    est = sca_estimate(_rx(pre, 20.0, seed=4), pre)
    assert abs(est.total - 20.0) < 1e-6
    assert not est.failed
    # B(g) runs over g = -32..32; the offset's g = 10 sits at index 42.
    assert est.profiles.shape == (1, 65) and est.peaks == (42,)


def test_zero_offset():
    pre = _preamble()
    est = sca_estimate(_rx(pre, 0.0, seed=9), pre)
    assert abs(est.total) < 1e-9


def test_fractional_and_odd_offsets():
    pre = _preamble()
    for cfo in (20.4, -13.0, 7.0):
        est = sca_estimate(_rx(pre, cfo, seed=31), pre)
        assert abs(est.total - cfo) < 1e-6, cfo


def test_degenerate_input():
    """An all-zero frame, and one whose symbol 2 energy underflows to 0, are degenerate.

    In the second, B(g) divides a nonzero correlation by 0 and reads inf,
    which is no peak to trust.
    """
    pre = _preamble(n_fft=64)
    rx = _rx(pre, 0.0, seed=1)
    faint = rx.copy()
    faint[80:] *= 1e-170
    for ffo_stage in (False, True):
        for dead in (np.zeros_like(rx), faint):
            with pytest.raises(DegenerateSignalError):
                sca_estimate(dead, pre, ffo_stage=ffo_stage)


def test_scale_decides_nothing():
    """Only an all-zero frame is degenerate: a faint one gives the same integer."""
    pre = _preamble(n_fft=64)
    rx = _rx(pre, 6.3, seed=4, snr_db=20.0)
    want = sca_estimate(rx, pre)
    for scale in (1e-6, 1e-9, 1e-20):
        got = sca_estimate(scale * rx, pre)
        assert got.ifo_residual == want.ifo_residual
        assert got.ffo == pytest.approx(want.ffo, rel=1e-9)


def test_batch_rows_match_single_frames():
    """Each row of a stacked pass equals the one-frame estimate; a dead row reads NaN alone."""
    pre = _preamble(n_fft=64)
    frames = [_rx(pre, cfo, seed=s, snr_db=10.0) for s, cfo in enumerate((20.4, -13.0, 6.0))]
    stack = np.stack(frames + [np.zeros(160, dtype=complex)])
    for ffo_stage in (True, False):
        report = sca_estimate_batch(stack, pre, ffo_stage=ffo_stage)
        ffo, ifo = report.ffo, report.ifo
        assert report.profiles.shape == (4, 1, 33) and report.peaks.shape == (4, 1)
        for i, rx in enumerate(frames):
            est = sca_estimate(rx, pre, ffo_stage=ffo_stage)
            assert (ffo[i], ifo[i], ifo[i] + ffo[i]) == (est.ffo, est.ifo_residual, est.total)
            assert tuple(report.peaks[i]) == est.peaks
            np.testing.assert_array_equal(report.profiles[i], est.profiles)
        assert math.isnan(ffo[-1])


def _metric_oracle(y, v, window):
    """B(g) for |g| <= window by its defining sum over even bins.

    One explicit loop per row, shift and bin.  Rows whose symbol 2 carries no energy read NaN, as 0/0 does.
    """
    n = y.shape[-1]
    spectra = np.fft.fft(y, norm="ortho").tolist()
    v = v.tolist()
    out = np.full((y.shape[0], 2 * window + 1), math.nan)
    for t, (x1, x2) in enumerate(spectra):
        energy = sum(abs(c) ** 2 for c in x2)
        if energy == 0:
            continue
        for i, g in enumerate(range(-window, window + 1)):
            acc = 0j
            for j in range(n // 2):
                k = (2 * j + 2 * g) % n
                acc += x1[k].conjugate() * v[j].conjugate() * x2[k]
            out[t, i] = abs(acc) ** 2 / (2 * energy**2)
    return out


# The oracle checks the shifts |g| <= window; the full window N/4 also checks
# the argmax and the tie between g = -N/4 and g = +N/4.
@pytest.mark.parametrize(
    "n_fft,window",
    [(n, w) for n in (8, 64, 1024) for w in sorted({n // 4, 3, 0}) if w <= n // 4],
)
def test_metric_matches_definitional_sum(n_fft, window):
    """The circular-correlation metric equals the direct sum; argmax agrees off near-ties."""
    pre = _preamble(n_fft=n_fft, cp=4, seed=n_fft)
    rng = np.random.default_rng(n_fft + window)
    y = rng.standard_normal((4, 2, n_fft)) + 1j * rng.standard_normal((4, 2, n_fft))
    y[1] = 0
    # The streams: each symbol y behind its cyclic prefix.
    stream = np.concatenate([y[..., n_fft - 4 :], y], axis=-1).reshape(4, -1)
    report = sca_estimate_batch(stream, pre, ffo_stage=False)
    ifo, metric = report.ifo, report.profiles[:, 0]
    assert metric.shape == (4, n_fft // 2 + 1)
    center = n_fft // 4
    # Each peak is its row's argmax, and the estimate is the even shift 2g it sits at.
    np.testing.assert_array_equal(report.peaks[:, 0], np.argmax(metric, axis=-1))
    np.testing.assert_array_equal(ifo, 2.0 * (report.peaks[:, 0] - center))
    metric = metric[:, center - window : center + window + 1]
    ref = _metric_oracle(y, pre.v, window)
    assert np.isnan(metric[1]).all()
    for t in (0, 2, 3):
        np.testing.assert_allclose(metric[t], ref[t], rtol=1e-9, atol=1e-12 * ref[t].max())
        top = np.sort(ref[t])[::-1]
        if window == center and (top.size == 1 or top[0] - top[1] > 1e-9 * top[0]):
            assert ifo[t] == 2 * (int(np.argmax(ref[t])) - window), t
    if window == center > 0:
        # g = -N/4 and g = +N/4 are the same even shift: an exact tie, which
        # argmax settles for the lower g.
        np.testing.assert_array_equal(metric[:, 0], metric[:, -1])


@settings(max_examples=60, deadline=None)
@given(
    n_fft=st.sampled_from([16, 64, 128]),
    paths=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_noiseless_static_even_offset_recovered(n_fft, paths, seed, data):
    """Any even offset 2g with |g| < N/4 is recovered exactly through a noiseless static channel."""
    g0 = data.draw(st.integers(-(n_fft // 4) + 1, n_fft // 4 - 1), label="g0")
    pre = _preamble(n_fft=n_fft, seed=seed)
    est = sca_estimate(_rx(pre, 2.0 * g0, seed=seed, paths=paths), pre)
    assert est.ifo_residual == 2 * g0
    assert abs(est.total - 2 * g0) < 1e-9


def test_varying_channel_fails_more_than_static():
    """The differential metric needs an unchanged channel; block fading breaks it."""
    cfg = ExperimentConfig(
        n_fft=128, r1=2, r2=8, cp_len=16,
        channel=ChannelProfile(path_count=4, decay=2.0),
        cfo_true=20.0, snr_grid_db=(10.0,), trials_per_point=1,
        estimators=("sca",), modes=("static", "varying"), ffo_stage_enabled=False, master_seed=77,
    )
    failures = {"static": 0, "varying": 0}
    for t in range(10_000):
        for mode, (ifo_correct, _, _) in zip(cfg.modes, run_trial(cfg, 10.0, "sca", t)):
            failures[mode] += not ifo_correct
    assert failures["varying"] > failures["static"]
