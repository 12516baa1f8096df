"""Fading channel emulator: statistics, convolution correctness, reproducibility."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cfolab import channel
from cfolab.channel import (
    ChannelProfile,
    draw_channel,
    noise_variance,
    propagate,
    transmit,
)
from cfolab.errors import ConfigError
from cfolab.signal import PreambleSpec, cazac_generate

from conftest import engine_taps


def _frame(n_fft=64, cp=16):
    return PreambleSpec(n_fft, 2, 8, cp).frame


def test_profile_validation():
    with pytest.raises(ConfigError):
        ChannelProfile(path_count=0, decay=2.0)
    with pytest.raises(ConfigError):
        ChannelProfile(path_count=4, decay=0.0)
    # The channel mode is transmit's, not the profile's.
    with pytest.raises(ConfigError, match="'warping'"):
        transmit(_frame(), ChannelProfile(4, 2.0), 0.0, math.inf, np.random.default_rng(0), mode="warping")


def test_tap_power_profile():
    """Sample mean tap powers match exp(-l/2), normalized to sum 1, within 3 standard errors."""
    profile = ChannelProfile(path_count=4, decay=2.0)
    shape = np.exp(-np.arange(4) / 2.0)
    np.testing.assert_allclose(shape, [1.0, 0.6065, 0.3679, 0.2231], atol=5e-4)
    expected = shape / shape.sum()
    np.testing.assert_allclose(profile.tap_powers(), expected, rtol=1e-15)
    taps = engine_taps(profile, "static", np.random.default_rng(1234), 100_000)[:, 0]
    powers = np.abs(taps) ** 2
    mean = powers.mean(axis=0)
    stderr = powers.std(axis=0, ddof=1) / np.sqrt(powers.shape[0])
    assert np.all(np.abs(mean - expected) < 3 * stderr)


def test_tap_power_flat_limit():
    profile = ChannelProfile(path_count=4, decay=1e9)
    np.testing.assert_allclose(profile.tap_powers(), np.full(4, 0.25), rtol=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("decay", [1e-320, 5e-324])
def test_tap_power_subnormal_decay_is_the_one_tap_limit(decay):
    """A subnormal decay gives what decay=1e-300 gives, without an overflow warning."""
    channel._tap_stats.cache_clear()
    np.testing.assert_array_equal(ChannelProfile(4, decay).tap_powers(), [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(ChannelProfile(4, 1e-300).tap_powers(), [1.0, 0.0, 0.0, 0.0])


def test_tap_power_rayleigh_distribution():
    """Per-tap |h|^2 is exponential with mean exp(-l/decay) / sum (KS at alpha=0.01)."""
    profile = ChannelProfile(path_count=3, decay=2.0)
    taps = engine_taps(profile, "static", np.random.default_rng(99), 100_000)[:, 0]
    shape = np.exp(-np.arange(3) / 2.0)
    for l in range(3):
        scale = shape[l] / shape.sum()
        result = stats.kstest(np.abs(taps[:, l]) ** 2, "expon", args=(0, scale))
        assert result.pvalue > 0.01


def test_normalized_energy():
    """With normalization on and noise off, mean received power is 1 within 3 SE."""
    frame = _frame()
    profile = ChannelProfile(path_count=4, decay=2.0)
    rng = np.random.default_rng(7)
    powers = []
    for _ in range(4000):
        rx = transmit(frame, profile, 0.0, np.inf, rng, mode="static")
        sym = rx.stream[frame.cp_len : frame.block_len]
        powers.append(np.mean(np.abs(sym) ** 2))
    powers = np.asarray(powers)
    stderr = powers.std(ddof=1) / np.sqrt(powers.size)
    assert abs(powers.mean() - 1.0) < 3 * stderr


def test_single_path_is_scaled_rotated_copy():
    frame = _frame()
    profile = ChannelProfile(path_count=1, decay=2.0)
    rng = np.random.default_rng(3)
    rx = transmit(frame, profile, 0.0, np.inf, rng, mode="static")
    gain = rx.taps[0, 0] * np.exp(1j * rx.phase_0)
    np.testing.assert_allclose(rx.stream, frame.samples * gain, atol=1e-14)


def test_cfo_rotation_is_frame_continuous():
    """Sample n of the output picks up exp(j*2*pi*cfo*n/N) with n over the frame."""
    frame = _frame(n_fft=128, cp=16)
    profile = ChannelProfile(path_count=1, decay=2.0)
    rng = np.random.default_rng(5)
    rx = transmit(frame, profile, 20.0, np.inf, rng, mode="static")
    gain = rx.taps[0, 0] * np.exp(1j * rx.phase_0)
    n = np.arange(frame.samples.size)
    expected = frame.samples * gain * np.exp(2j * np.pi * 20.0 * n / 128)
    np.testing.assert_allclose(rx.stream, expected, atol=1e-12)


def test_cp_window_equals_circular_convolution():
    """The CP-stripped window is the circular convolution of taps with the raw symbol."""
    frame = _frame(n_fft=64, cp=16)
    profile = ChannelProfile(path_count=4, decay=2.0)
    rng = np.random.default_rng(21)
    rx = transmit(frame, profile, 3.7, np.inf, rng, mode="varying")
    n = np.arange(64)
    for s, rate in enumerate((2, 8)):
        raw = cazac_generate(64, rate)
        circ = np.zeros(64, dtype=complex)
        for m, h in enumerate(rx.taps[s]):
            circ += h * raw[(n - m) % 64]
        offset = s * frame.block_len + frame.cp_len
        rot = np.exp(1j * (2 * np.pi * 3.7 * (offset + n) / 64 + rx.phase_0))
        np.testing.assert_allclose(rx.stream[offset : offset + 64], circ * rot, atol=1e-12)


def test_static_mode_shares_one_realization():
    frame = _frame()
    rng = np.random.default_rng(2)
    rx = transmit(frame, ChannelProfile(4, 2.0), 0.0, math.inf, rng, mode="static")
    assert rx.taps.shape == (2, 4)
    np.testing.assert_array_equal(rx.taps[0], rx.taps[1])


def test_varying_mode_taps_independent():
    """Across-symbol correlation of h(0) stays below 0.02 over 20k frames."""
    profile = ChannelProfile(path_count=4, decay=2.0)
    taps = engine_taps(profile, "varying", np.random.default_rng(17), 20_000)
    first, second = taps[:, 0, 0], taps[:, 1, 0]
    corr = np.abs(np.mean(first * np.conj(second))) / np.sqrt(
        np.mean(np.abs(first) ** 2) * np.mean(np.abs(second) ** 2)
    )
    assert corr < 0.02


@pytest.mark.parametrize("paths", [1, 4, 16])
def test_draw_channel_is_the_engines_static_symbol_1_draw(paths):
    """draw_channel gives the symbol-1 taps and phase_0 that propagate draws in static mode, bit for bit.

    The sweep engine never calls draw_channel.  It stays only because the
    benchmark's traced spans (bench/spans.py) bind channel.draw_channel,
    until the benchmark is rebound to the layers the engine runs; this test
    keeps it equal to the engine's draw until then.
    """
    profile = ChannelProfile(paths, 2.0)
    count = 5
    (_,), taps, phase_0 = propagate(
        (_frame(),), profile, ("static",), 0.0,
        (np.random.default_rng([paths, i]) for i in range(count)), np.zeros(count),
    )
    for i in range(count):
        got_taps, got_phase = draw_channel(profile, np.random.default_rng([paths, i]))
        np.testing.assert_array_equal(got_taps.view(np.uint64), taps[i, 0].view(np.uint64))
        assert got_phase.hex() == phase_0[i].hex()


def test_varying_mode_shares_phase():
    frame = _frame()
    rng = np.random.default_rng(8)
    rx = transmit(frame, ChannelProfile(4, 2.0), 0.0, math.inf, rng, mode="varying")
    assert rx.taps.shape == (2, 4) and isinstance(rx.phase_0, float)
    assert not np.allclose(rx.taps[0], rx.taps[1])


def test_reproducible_with_seed():
    frame = _frame()
    profile = ChannelProfile(path_count=4, decay=2.0)
    rx_a = transmit(frame, profile, 11.25, 10.0, np.random.default_rng(42), mode="varying")
    rx_b = transmit(frame, profile, 11.25, 10.0, np.random.default_rng(42), mode="varying")
    np.testing.assert_array_equal(rx_a.stream, rx_b.stream)


def test_noise_variance_matches_snr():
    """Difference between noisy and noiseless runs with one seed is the noise."""
    frame = _frame(n_fft=128, cp=16)
    profile = ChannelProfile(path_count=4, decay=2.0)
    noisy = transmit(frame, profile, 0.0, 10.0, np.random.default_rng(6), mode="static")
    clean = transmit(frame, profile, 0.0, np.inf, np.random.default_rng(6), mode="static")
    noise = noisy.stream - clean.stream
    sigma2 = noise_variance(profile, 10.0)
    assert sigma2 == pytest.approx(0.1)
    measured = np.mean(np.abs(noise) ** 2)
    assert abs(measured - sigma2) / sigma2 < 0.25  # 288 samples, loose statistical bound


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf, 4000.0, -4000.0])
def test_channel_rejects_snr_it_cannot_model(snr_db):
    """An SNR without a finite, nonzero noise variance raises; +inf alone is the noiseless channel."""
    profile = ChannelProfile(4, 2.0)
    with pytest.raises(ConfigError, match="outside what the channel can model"):
        noise_variance(profile, snr_db)
    with pytest.raises(ConfigError, match="outside what the channel can model"):
        transmit(_frame(), profile, 20.0, snr_db, np.random.default_rng(0))
    assert noise_variance(profile, math.inf) == 0.0
    for finite in (3000.0, -3000.0):
        assert 0.0 < noise_variance(profile, finite) < math.inf


def test_cp_too_short_rejected():
    frame = _frame(n_fft=64, cp=2)
    with pytest.raises(ConfigError):
        transmit(frame, ChannelProfile(4, 2.0), 0.0, math.inf, np.random.default_rng(0))


def test_cfo_out_of_range_rejected():
    frame = _frame(n_fft=64, cp=16)
    with pytest.raises(ConfigError):
        transmit(frame, ChannelProfile(1, 2.0), 40.0, math.inf, np.random.default_rng(0))


@pytest.mark.parametrize("paths", [1, 4, 8, 16])
def test_propagate_row_does_not_depend_on_its_batch(paths):
    """A frame propagated alone, or among other frames in any order, gives the same bits.

    Frame i draws from its own generator, default_rng([paths, i]), in both
    modes, and frame 3 draws no noise; its stream rows, taps and phase are
    compared.  The sweep engine relies on this: run_trial replays one trial
    of a sweep as a batch of one.  8 and 9 frames make 16 and 18 rows, row
    counts Haswell's kernels split into chunks of other widths when
    propagate padded to 16; 12 and 13 make 24 and 26 rows: exactly one
    block of propagate's padding, and past it.
    """
    frame = _frame(n_fft=64, cp=16)
    profile = ChannelProfile(paths, 2.0)
    modes = ("varying", "static")
    for count in (8, 9, 12, 13):
        scale = np.random.default_rng(paths).uniform(0.0, 1.0, count)
        scale[3] = 0.0

        def run(frames):
            """(stream, taps, phase_0) of these frames, the first two per frame."""
            rngs = (np.random.default_rng([paths, i]) for i in frames.tolist())
            (stream,), taps, phase_0 = propagate((frame,), profile, modes, 5.3, rngs, scale[frames])
            return stream.reshape(len(frames), 2, -1), taps.reshape(len(frames), 2, 2, paths), phase_0

        batch = run(np.arange(count))
        order = np.random.default_rng(paths).permutation(count)
        for got, want in zip(run(order), batch):
            np.testing.assert_array_equal(got, want[order])
        for i in range(count):
            for got, want in zip(run(np.array([i])), batch):
                np.testing.assert_array_equal(got[0], want[i])


@pytest.mark.parametrize("paths", [1, 4, 6, 8, 16])
def test_propagate_lone_row_keeps_its_bits(paths):
    """In one mode, a one-frame call holds one row, and it must equal its row in a batch of 5.

    Unpadded, BLAS computes a one-row matrix product on another path than
    a many-row one, which changes the last bits for L >= 6 on some builds,
    and Sandybridge's kernels give the odd last row of a call other bits.
    """
    frame = _frame(n_fft=64, cp=16)
    profile = ChannelProfile(paths, 2.0)
    count = 5
    scale = np.full(count, 0.25)

    def run(frames):
        rngs = (np.random.default_rng([paths, i]) for i in frames)
        return propagate((frame,), profile, ("varying",), -7.1, rngs, scale[: len(frames)])[0][0]

    batch = run(range(count))
    for i in range(count):
        np.testing.assert_array_equal(run([i])[0], batch[i])


def test_propagate_adds_the_noise_the_scaled_product_gave():
    """The noise propagate adds in place has the bits of scale * white, at scales 1e-300..1e300.

    The expected stream is the noiseless one (the same draws, minus the
    noise drawn last) plus scale * white, the expression propagate used
    before it scaled white in place; white is replayed with draw_frame.
    """
    frame = _frame(n_fft=64, cp=16)
    profile = ChannelProfile(4, 2.0)
    modes = ("varying", "static")
    count, blk = 8, frame.block_len
    scale = 10.0 ** np.random.default_rng(1).uniform(-300.0, 300.0, count)

    def rngs():
        return (np.random.default_rng([7, i]) for i in range(count))

    noisy = propagate((frame,), profile, modes, 5.3, rngs(), scale)[0][0].reshape(count, 2, 2 * blk)
    clean = propagate((frame,), profile, modes, 5.3, rngs(), np.zeros(count))[0][0]
    for i, rng in enumerate(rngs()):
        white = np.empty((2, 4 * blk))
        channel.draw_frame(modes, rng, np.empty((2, 2, 8)), white)
        want = clean.reshape(count, 2, 2 * blk)[i].copy()
        want.real += scale[i] * white[..., : 2 * blk]
        want.imag += scale[i] * white[..., 2 * blk :]
        np.testing.assert_array_equal(noisy[i].view(np.uint64), want.view(np.uint64))


def test_a_noiseless_call_holds_no_noise():
    """A call whose every frame is noiseless peaks near the size of what it returns.

    Its rows have the bits they get in a call that holds noise for other
    frames.  A (frames, modes, 4 * block) noise buffer would double the peak.
    """
    frame = _frame(n_fft=128, cp=16)
    profile, modes, count = ChannelProfile(4, 2.0), ("varying", "static"), 512

    def run(scale):
        rngs = (np.random.default_rng([7, i]) for i in range(len(scale)))
        return propagate((frame,), profile, modes, 5.3, rngs, scale)

    run(np.zeros(1))  # one call first, so first-call allocations do not count
    tracemalloc.start()
    try:
        (stream,), taps, phase_0 = run(np.zeros(count))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (stream.nbytes + taps.nbytes + phase_0.nbytes)
    mixed = run(np.where(np.arange(count) % 2 == 0, 0.1, 0.0))[0][0].reshape(count, -1)
    clean = stream.reshape(count, -1)
    np.testing.assert_array_equal(mixed[1::2].view(np.uint64), clean[1::2].view(np.uint64))
    assert not np.array_equal(mixed[::2], clean[::2])


# FFT sizes whose frames share one draw, at one CP: the draws for each block
# length must be a prefix of those for every longer one.
PREFIX_SIZES = (16, 64, 128, 256)
PREFIX_CP = 16
MODE_LISTS = [("varying",), ("static",), ("varying", "static"), ("static", "varying")]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
@pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "noiseless"])
@pytest.mark.parametrize("modes", MODE_LISTS, ids="-".join)
@pytest.mark.parametrize("paths", [1, 4])
def test_shorter_block_draws_are_a_prefix_of_longer_block_draws(paths, modes, noisy, seed):
    """A frame drawn for a shorter block is the prefix of the same generator's frame for a longer one.

    Each block length draws with draw_frame from a fresh generator of one
    seed: the tap normals and the common phase must be equal, and each
    mode's noise for a shorter block must be the first normals of its noise
    for every longer block.  A noiseless row draws no noise.  The sweep
    engine relies on this to draw one frame for every FFT size (numpy keeps
    its Generator streams stable, NEP 19).
    """
    width = len(modes)
    draws = []
    for n_fft in PREFIX_SIZES:
        rng = np.random.default_rng(seed)
        taps = np.empty((width, 2, 2 * paths))
        white = np.empty((width, 4 * (n_fft + PREFIX_CP))) if noisy else None
        draws.append((channel.draw_frame(modes, rng, taps, white), taps, white))
    for k, (phase, taps, white) in enumerate(draws):
        for longer_phase, longer_taps, longer_white in draws[k + 1 :]:
            assert longer_phase == phase
            np.testing.assert_array_equal(longer_taps, taps)
            if noisy:
                np.testing.assert_array_equal(longer_white[:, : white.shape[1]], white)


@pytest.mark.parametrize("paths", [1, 4])
def test_propagate_gives_each_preamble_the_frame_it_gets_alone(paths):
    """Preambles of several FFT sizes propagated together each get the bits they get alone.

    One generator per frame feeds every preamble: the longest block sets
    the noise draw and each preamble reads its prefix.  Frame 2 draws no
    noise.  Streams, taps and phases are compared bit for bit, with the
    preambles in either order and each one alone.
    """
    frames = [_frame(n_fft=n_fft, cp=PREFIX_CP) for n_fft in (64, 16, 128)]
    profile = ChannelProfile(paths, 2.0)
    modes = ("varying", "static")
    count = 5
    scale = np.random.default_rng(paths).uniform(0.1, 1.0, count)
    scale[2] = 0.0

    def run(preambles):
        rngs = (np.random.default_rng([paths, i]) for i in range(count))
        return propagate(preambles, profile, modes, 5.3, rngs, scale)

    streams, taps, phase_0 = run(frames)
    assert [s.shape for s in streams] == [(count * 2, 2 * f.block_len) for f in frames]
    for order in ([2, 0, 1], [0], [1], [2]):
        got_streams, got_taps, got_phase = run([frames[i] for i in order])
        for i, got in zip(order, got_streams):
            np.testing.assert_array_equal(got.view(np.uint64), streams[i].view(np.uint64))
        np.testing.assert_array_equal(got_taps, taps)
        np.testing.assert_array_equal(got_phase, phase_0)


def test_propagate_needs_one_generator_per_frame():
    """Fewer or more generators than scale entries raise instead of sending out undrawn rows."""
    frame = _frame()
    scale = np.full(3, 0.5)
    for count in (2, 4):
        rngs = (np.random.default_rng(i) for i in range(count))
        with pytest.raises(ValueError):
            propagate((frame,), ChannelProfile(4, 2.0), ("varying",), 1.0, rngs, scale)
