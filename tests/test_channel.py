"""Fading channel emulator: statistics, convolution correctness, reproducibility."""

import numpy as np
import pytest
from scipy import stats

from cfolab import channel
from cfolab.channel import (
    ChannelProfile,
    ImpairmentSpec,
    draw_channel,
    noise_variance,
    propagate,
    transmit,
)
from cfolab.errors import ConfigError
from cfolab.signal import CazacParams, PreambleSpec, build_preamble


def _frame(n_fft=64, cp=16):
    return build_preamble(PreambleSpec(CazacParams(n_fft, 2), CazacParams(n_fft, 8), cp))


def _draw_many(profile, rng, count):
    return np.stack([draw_channel(profile, rng).taps for _ in range(count)])


def test_profile_validation():
    with pytest.raises(ConfigError):
        ChannelProfile(path_count=0, decay=2.0)
    with pytest.raises(ConfigError):
        ChannelProfile(path_count=4, decay=0.0)
    with pytest.raises(ConfigError):
        ChannelProfile(path_count=4, decay=2.0, mode="warping")


def test_tap_power_profile():
    """Sample mean tap powers match exp(-l/2) within 3 standard errors."""
    profile = ChannelProfile(path_count=4, decay=2.0, normalize_power=False)
    expected = np.exp(-np.arange(4) / 2.0)
    np.testing.assert_allclose(expected, [1.0, 0.6065, 0.3679, 0.2231], atol=5e-4)
    taps = _draw_many(profile, np.random.default_rng(1234), 100_000)
    powers = np.abs(taps) ** 2
    mean = powers.mean(axis=0)
    stderr = powers.std(axis=0, ddof=1) / np.sqrt(powers.shape[0])
    assert np.all(np.abs(mean - expected) < 3 * stderr)


def test_tap_power_flat_limit():
    profile = ChannelProfile(path_count=4, decay=1e9, normalize_power=False)
    np.testing.assert_allclose(profile.tap_powers(), np.ones(4), rtol=1e-8)


def test_tap_power_rayleigh_distribution():
    """Per-tap |h|^2 is exponential with mean exp(-l/decay) (KS at alpha=0.01)."""
    profile = ChannelProfile(path_count=3, decay=2.0, normalize_power=False)
    taps = _draw_many(profile, np.random.default_rng(99), 100_000)
    for l in range(3):
        scale = np.exp(-l / 2.0)
        result = stats.kstest(np.abs(taps[:, l]) ** 2, "expon", args=(0, scale))
        assert result.pvalue > 0.01


def test_normalized_energy():
    """With normalization on and noise off, mean received power is 1 within 3 SE."""
    frame = _frame()
    profile = ChannelProfile(path_count=4, decay=2.0, mode="static")
    rng = np.random.default_rng(7)
    imp = ImpairmentSpec(cfo=0.0, snr_db=np.inf)
    powers = []
    for _ in range(4000):
        rx = transmit(frame, profile, imp, rng)
        sym = rx.symbols[0]
        powers.append(np.mean(np.abs(sym) ** 2))
    powers = np.asarray(powers)
    stderr = powers.std(ddof=1) / np.sqrt(powers.size)
    assert abs(powers.mean() - 1.0) < 3 * stderr


def test_single_path_is_scaled_rotated_copy():
    frame = _frame()
    profile = ChannelProfile(path_count=1, decay=2.0, mode="static")
    rng = np.random.default_rng(3)
    rx = transmit(frame, profile, ImpairmentSpec(cfo=0.0, snr_db=np.inf), rng)
    gain = rx.realizations[0].taps[0] * np.exp(1j * rx.realizations[0].phase_0)
    np.testing.assert_allclose(rx.stream, frame.samples * gain, atol=1e-14)


def test_cfo_rotation_is_frame_continuous():
    """Sample n of the output picks up exp(j*2*pi*cfo*n/N) with n over the frame."""
    frame = _frame(n_fft=128, cp=16)
    profile = ChannelProfile(path_count=1, decay=2.0, mode="static")
    rng = np.random.default_rng(5)
    rx = transmit(frame, profile, ImpairmentSpec(cfo=20.0, snr_db=np.inf), rng)
    real = rx.realizations[0]
    gain = real.taps[0] * np.exp(1j * real.phase_0)
    n = np.arange(frame.samples.size)
    expected = frame.samples * gain * np.exp(2j * np.pi * 20.0 * n / 128)
    np.testing.assert_allclose(rx.stream, expected, atol=1e-12)


def test_cp_window_equals_circular_convolution():
    """The CP-stripped window is the circular convolution of taps with the raw symbol."""
    frame = _frame(n_fft=64, cp=16)
    profile = ChannelProfile(path_count=4, decay=2.0, mode="varying")
    rng = np.random.default_rng(21)
    rx = transmit(frame, profile, ImpairmentSpec(cfo=3.7, snr_db=np.inf), rng)
    n = np.arange(64)
    for s in range(2):
        taps = rx.realizations[s].taps
        raw = frame.symbols[s]
        circ = np.zeros(64, dtype=complex)
        for m, h in enumerate(taps):
            circ += h * raw[(n - m) % 64]
        offset = s * frame.block_len + frame.cp_len
        rot = np.exp(1j * (2 * np.pi * 3.7 * (offset + n) / 64 + rx.realizations[s].phase_0))
        np.testing.assert_allclose(rx.symbols[s], circ * rot, atol=1e-12)


def test_static_mode_shares_one_realization():
    frame = _frame()
    rng = np.random.default_rng(2)
    rx = transmit(frame, ChannelProfile(4, 2.0, mode="static"), ImpairmentSpec(0.0), rng)
    assert rx.realizations[0] is rx.realizations[1]


def test_varying_mode_taps_independent():
    """Across-symbol correlation of h(0) stays below 0.02 over 20k frames."""
    profile = ChannelProfile(path_count=4, decay=2.0, mode="varying")
    rng = np.random.default_rng(17)
    first = np.empty(20_000, dtype=complex)
    second = np.empty(20_000, dtype=complex)
    for i in range(first.size):
        a = draw_channel(profile, rng)
        b = draw_channel(profile, rng)
        first[i], second[i] = a.taps[0], b.taps[0]
    corr = np.abs(np.mean(first * np.conj(second))) / np.sqrt(
        np.mean(np.abs(first) ** 2) * np.mean(np.abs(second) ** 2)
    )
    assert corr < 0.02


def test_varying_mode_shares_phase():
    frame = _frame()
    rng = np.random.default_rng(8)
    rx = transmit(frame, ChannelProfile(4, 2.0, mode="varying"), ImpairmentSpec(0.0), rng)
    assert rx.realizations[0] is not rx.realizations[1]
    assert rx.realizations[0].phase_0 == rx.realizations[1].phase_0
    assert not np.allclose(rx.realizations[0].taps, rx.realizations[1].taps)


def test_reproducible_with_seed():
    frame = _frame()
    profile = ChannelProfile(path_count=4, decay=2.0, mode="varying")
    imp = ImpairmentSpec(cfo=11.25, snr_db=10.0)
    rx_a = transmit(frame, profile, imp, np.random.default_rng(42))
    rx_b = transmit(frame, profile, imp, np.random.default_rng(42))
    np.testing.assert_array_equal(rx_a.stream, rx_b.stream)


def test_noise_variance_matches_snr():
    """Difference between noisy and noiseless runs with one seed is the noise."""
    frame = _frame(n_fft=128, cp=16)
    profile = ChannelProfile(path_count=4, decay=2.0, mode="static")
    noisy = transmit(frame, profile, ImpairmentSpec(0.0, snr_db=10.0), np.random.default_rng(6))
    clean = transmit(frame, profile, ImpairmentSpec(0.0, snr_db=np.inf), np.random.default_rng(6))
    noise = noisy.stream - clean.stream
    sigma2 = noise_variance(profile, 10.0)
    assert sigma2 == pytest.approx(0.1)
    measured = np.mean(np.abs(noise) ** 2)
    assert abs(measured - sigma2) / sigma2 < 0.25  # 288 samples, loose statistical bound


def test_cp_too_short_rejected():
    frame = _frame(n_fft=64, cp=2)
    with pytest.raises(ConfigError):
        transmit(frame, ChannelProfile(4, 2.0), ImpairmentSpec(0.0), np.random.default_rng(0))


def test_cfo_out_of_range_rejected():
    frame = _frame(n_fft=64, cp=16)
    with pytest.raises(ConfigError):
        transmit(frame, ChannelProfile(1, 2.0), ImpairmentSpec(40.0), np.random.default_rng(0))


@pytest.mark.parametrize("paths", [1, 4, 8, 16])
def test_propagate_row_does_not_depend_on_its_batch(paths):
    """A row propagated alone, or among other rows in any order, gives the same bits.

    The sweep engine relies on this: run_trial replays one trial of a sweep
    as a batch of one.  The second and later calls read the frame's
    convolution windows from the cache the first call filled.
    """
    frame = _frame(n_fft=64, cp=16)
    rng = np.random.default_rng(paths)
    count = 9
    taps = rng.standard_normal((count, 2, paths)) + 1j * rng.standard_normal((count, 2, paths))
    phase_0 = rng.uniform(0.0, 2 * np.pi, count)
    white = rng.standard_normal((count, 4 * frame.block_len))
    scale = rng.uniform(0.0, 1.0, count)
    scale[3] = 0.0
    hits = channel._frame_windows.cache_info().hits
    batch = propagate(frame, taps, phase_0, 5.3, white, scale)
    order = rng.permutation(count)
    shuffled = propagate(frame, taps[order], phase_0[order], 5.3, white[order], scale[order])
    np.testing.assert_array_equal(shuffled, batch[order])
    for i in range(count):
        row = slice(i, i + 1)
        alone = propagate(frame, taps[row], phase_0[row], 5.3, white[row], scale[row])
        np.testing.assert_array_equal(alone[0], batch[i])
    assert channel._frame_windows.cache_info().hits >= hits + count + 1
