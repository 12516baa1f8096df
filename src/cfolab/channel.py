"""Rayleigh block-fading multipath emulation with CFO, common phase, and AWGN.

Each OFDM symbol sees an L-tap channel whose tap powers follow an exponential
delay profile exp(-l/decay).  The carrier offset rotates the whole frame with
a continuously running sample index (one oscillator), and a single common
phase is drawn per frame.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .signal import PreambleFrame

MODE_STATIC = "static"
MODE_VARYING = "varying"


def check_modes(modes: Sequence[str]) -> None:
    """Raise ConfigError unless modes names at least one channel mode, each known and once.

    "static" reuses one tap realization for the whole frame; "varying"
    redraws taps independently per symbol (block fading).
    """
    if not modes:
        raise ConfigError("modes must name at least one channel mode")
    for i, mode in enumerate(modes):
        if mode not in (MODE_STATIC, MODE_VARYING):
            raise ConfigError(f"mode must be '{MODE_STATIC}' or '{MODE_VARYING}', got {mode!r}")
        if mode in modes[:i]:
            raise ConfigError(f"mode {mode!r} is listed twice")


@dataclass(frozen=True)
class ChannelProfile:
    """Statistical description of the multipath channel.

    Args:
        path_count: number of taps L.
        decay: exponential delay-profile constant; tap l has mean power
            exp(-l/decay), scaled so the powers sum to 1 and the
            ensemble-mean received power is 1.
    """

    path_count: int
    decay: float

    def __post_init__(self) -> None:
        if self.path_count < 1:
            raise ConfigError(f"path_count must be >= 1, got {self.path_count}")
        if not self.decay > 0:
            raise ConfigError(f"decay must be positive, got {self.decay}")

    def check_cp(self, cp_len: int) -> None:
        """Raise ConfigError unless a cyclic prefix of cp_len samples absorbs the channel memory."""
        if cp_len < self.path_count - 1:
            raise ConfigError(
                f"cp_len={cp_len} too short for {self.path_count} paths "
                f"(need >= {self.path_count - 1})"
            )

    def tap_powers(self) -> np.ndarray:
        """Ensemble mean power per tap, normalized to sum to 1 (read-only)."""
        return _tap_stats(self.path_count, self.decay)[0]

    def mean_power(self) -> float:
        """Total ensemble mean received power for a unit-power input."""
        return _tap_stats(self.path_count, self.decay)[1]


@lru_cache(maxsize=32)
def _tap_stats(path_count: int, decay: float) -> tuple[np.ndarray, float, np.ndarray]:
    """(tap powers, their sum, tap standard deviations) of a profile; the arrays are read-only."""
    # A subnormal decay overflows l/decay to inf: exp gives 0, the one-tap
    # limit that decay=1e-300 reaches without overflowing.
    with np.errstate(over="ignore"):
        p = np.exp(-np.arange(path_count) / decay)
    p = p / p.sum()
    std = np.sqrt(p / 2.0)
    p.flags.writeable = std.flags.writeable = False
    return p, float(p.sum()), std


@dataclass(frozen=True)
class ImpairmentSpec:
    """Receiver-side impairments for one transmission.

    cfo is normalized to the subcarrier spacing; snr_db relates the total
    mean received signal power to the per-sample complex noise variance.
    Noise is drawn unless snr_db is +inf, the noiseless run (noise_variance).
    """

    cfo: float
    snr_db: float = math.inf


@dataclass(frozen=True, eq=False)
class ReceivedFrame:
    """Channel output: the CP-intact frame stream and the channel's draws.

    taps is (2, L), one row per symbol (equal in static mode); phase_0 is the one common phase.
    """

    stream: np.ndarray
    taps: np.ndarray
    phase_0: float


def complex_taps(std: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Complex taps from standard normals laid out (..., 2L): real parts, then imaginary parts."""
    paths = std.shape[0]
    return std * normals[..., :paths] + 1j * (std * normals[..., paths:])


def _draw_phase(rng: np.random.Generator) -> float:
    """A phase uniform on [0, 2*pi).

    This is the draw rng.uniform(0.0, 2*pi) makes, low + (high - low) *
    random(), bit for bit, without its per-call argument handling.
    """
    return 2.0 * np.pi * rng.random()


def draw_channel(profile: ChannelProfile, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Draw one tap realization and a common phase; return (taps, phase_0).

    Each tap is zero-mean circularly-symmetric complex Gaussian with variance
    equal to its profile power; phase_0 is uniform on [0, 2*pi).
    """
    std = _tap_stats(profile.path_count, profile.decay)[2]
    taps = complex_taps(std, rng.standard_normal(2 * profile.path_count))
    return taps, _draw_phase(rng)


def draw_frame(
    modes: Sequence[str],
    rng: np.random.Generator,
    tap_normals: np.ndarray,
    white: np.ndarray | None,
) -> float:
    """Draw one frame's random inputs for each of its channel modes; return its common phase.

    A frame draws, in stream order: symbol-1 tap normals (real parts, then
    imaginary parts) and the common phase; in varying mode, symbol-2 tap
    normals and a second phase that is drawn and discarded (one oscillator
    per frame); then, if white is given, the noise normals (real parts,
    then imaginary parts).  This is the order draw_channel twice (or once)
    and two noise draws would consume, so every frame stays replayable
    from its generator alone.

    Every mode shares the prefix up to the common phase, so it is drawn
    once.  Each mode then draws its continuation from the generator state
    right after the prefix, restored between modes: a Generator keeps no
    state outside its bit generator, so mode m's draws equal those a fresh
    generator of the same seed gives for that mode alone.  tap_normals is
    a (M, 2, 2L) buffer for the M modes, one row per symbol; in static mode
    row 2 is a copy of row 1.  white, if given, is (M, W): a frame whose
    blocks are b samples long reads the first 4*b normals of a row, its
    real parts and then its imaginary parts, so one draw serves every
    block length up to W/4 (propagate).
    """
    rng.standard_normal(out=tap_normals[0, 0])
    phase_0 = _draw_phase(rng)
    prefix_end = rng.bit_generator.state if len(modes) > 1 else None
    for m, mode in enumerate(modes):
        if m:
            rng.bit_generator.state = prefix_end
            tap_normals[m, 0] = tap_normals[0, 0]
        if mode == MODE_VARYING:
            rng.standard_normal(out=tap_normals[m, 1])
            _draw_phase(rng)
        else:
            tap_normals[m, 1] = tap_normals[m, 0]
        if white is not None:
            rng.standard_normal(out=white[m])
    return phase_0


def noise_variance(profile: ChannelProfile, snr_db: float) -> float:
    """Per-sample complex noise variance for a unit-power transmit waveform.

    +inf is the noiseless channel, variance 0.

    Raises:
        ConfigError: for any other SNR without a finite, nonzero variance:
            NaN, -inf and SNRs whose linear power overflows or underflows.
    """
    if snr_db == math.inf:
        return 0.0
    try:
        variance = profile.mean_power() / (10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        variance = math.nan
    if not 0.0 < variance < math.inf:
        raise ConfigError(f"SNR {snr_db} dB is outside what the channel can model")
    return variance


def noise_std(profile: ChannelProfile, snr_db: float) -> float:
    """Standard deviation of the real and of the imaginary noise part per sample."""
    return math.sqrt(noise_variance(profile, snr_db) / 2.0)


# propagate pads its matrix products with zero rows to a multiple of this many
# rows: a multiple of 2, 4, 6 and 8, the row chunks OpenBLAS's x86-64 kernels take.
_GEMM_ROWS = 24


@lru_cache(maxsize=8)
def _cfo_ramp(cfo: float, n_fft: int, total_len: int) -> np.ndarray:
    ramp = np.exp(2j * np.pi * cfo * np.arange(total_len) / n_fft)
    ramp.flags.writeable = False
    return ramp


def propagate(
    frames: Sequence[PreambleFrame],
    profile: ChannelProfile,
    modes: Sequence[str],
    cfo: float,
    rngs: Iterable[np.random.Generator],
    scale: np.ndarray,
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Make one frame per generator of rngs, for each preamble of frames, in every mode of modes.

    Frame i draws its taps, common phase and noise from rngs[i] with
    draw_frame, once for all modes and all preambles, and no noise where
    scale[i] (its noise standard deviation) is 0.  The noise is drawn for
    the longest block of frames, and each preamble takes the prefix its own
    two blocks need: a Generator fills a normal draw in order, so the first
    k normals of a longer draw are the k a draw of k gives, and a preamble
    gets the frame it would get alone (numpy keeps its streams stable, NEP
    19).  The taps follow profile's path count and decay.  Each CP-extended
    block is convolved with its symbol's taps, the whole frame is rotated
    by exp(j*(2*pi*cfo*n/n_fft + phase_0)) with n running continuously from
    the first frame sample, and complex noise scale * (re + j*im) is added
    last.  rngs may be lazy.

    Returns (streams, taps, phase_0): per preamble of frames, (T*M,
    2*block) CP-intact streams, rows in (frame, mode) order; (T*M, 2, L)
    taps in the same order; and (T,) common phases.

    Each symbol's convolution is one (rows, L) @ (L, block) matrix product
    of the reversed taps with the symbol's windows, built in the call: row k
    is the block delayed by L-1-k samples, zeros before the block starts, so
    the product is the full linear convolution truncated to the block.  A
    row does not depend on the batch it sits in: propagating a frame alone
    or among any other frames gives the same bits.  OpenBLAS picks its code
    for a row by the call's row count: a one-row product takes a
    matrix-vector path, and some kernels take the rows in chunks (6 under
    Haswell, 2 under Sandybridge) and give the rows of a shorter last chunk
    other bits.  So on every call the taps are padded with zero rows to a
    multiple of _GEMM_ROWS rows, and the padded rows are dropped.  The
    products need not sum in np.convolve's order, so a row can differ from
    np.convolve in the last bits; like any BLAS result, the bits depend on
    the BLAS build.

    Raises:
        ConfigError: if modes is not a list of distinct channel modes
            (check_modes), the CP of a preamble cannot absorb the channel
            memory or the offset exceeds half its signal bandwidth.
        ValueError: if rngs does not hold one generator per scale entry.
    """
    check_modes(modes)
    for frame in frames:
        profile.check_cp(frame.cp_len)
        if not abs(cfo) < frame.n_fft / 2:
            raise ConfigError(f"|cfo| must be < n_fft/2 = {frame.n_fft / 2}, got {cfo}")
    paths = profile.path_count
    count, width = len(scale), len(modes)
    tap_normals = np.empty((count, width, 2, 2 * paths))
    phase_0 = np.empty(count)
    # Zeros, so frames drawn without noise add exact zeros.
    white = np.zeros((count, width, 4 * max(frame.block_len for frame in frames)))
    for i, (rng, noisy) in enumerate(zip(rngs, (scale != 0).tolist(), strict=True)):
        phase_0[i] = draw_frame(modes, rng, tap_normals[i], white[i] if noisy else None)
    n_rows = count * width
    taps = complex_taps(_tap_stats(paths, profile.decay)[2], tap_normals.reshape(n_rows, 2, -1))
    reversed_taps = np.zeros((-(-n_rows // _GEMM_ROWS) * _GEMM_ROWS, 2, paths), dtype=np.complex128)
    reversed_taps[:n_rows] = taps[..., ::-1]
    rotation = np.exp(1j * phase_0)[:, None, None]
    # Scaling is elementwise, so each preamble's prefix of the scaled buffer
    # has the bits of its own noise scaled.
    white *= scale[:, None, None]
    streams = []
    for frame in frames:
        blk = frame.block_len
        blocks = frame.samples.reshape(2, blk)
        windows = np.zeros((2, paths, blk), dtype=np.complex128)
        for k in range(paths):
            windows[:, k, paths - 1 - k :] = blocks[:, : blk - paths + 1 + k]
        faded = np.empty((len(reversed_taps), 2, blk), dtype=np.complex128)
        for s in range(2):
            np.matmul(reversed_taps[:, s], windows[s], out=faded[:, s])
        stream = faded[:n_rows].reshape(n_rows, 2 * blk)
        stream *= _cfo_ramp(cfo, frame.n_fft, 2 * blk)
        rows = stream.reshape(count, width, 2 * blk)
        rows *= rotation
        rows.real += white[..., : 2 * blk]
        rows.imag += white[..., 2 * blk : 4 * blk]
        streams.append(stream)
    return tuple(streams), taps, phase_0


def transmit(
    frame: PreambleFrame,
    profile: ChannelProfile,
    imp: ImpairmentSpec,
    rng: np.random.Generator,
    mode: str = MODE_VARYING,
) -> ReceivedFrame:
    """Push a preamble frame through the fading channel with CFO and AWGN, in one channel mode.

    Per symbol, the CP-extended block is convolved with that symbol's taps,
    then the whole frame is rotated by exp(j*(2*pi*cfo*n/n_fft + phase_0))
    with n running continuously from the first frame sample.  Complex white
    noise is added last, unless snr_db is +inf.  Returns the CP-intact
    stream with the taps and the common phase it was drawn with.  This is
    propagate for one frame in mode.

    Raises:
        ConfigError: if mode is not a channel mode, the CP cannot absorb the
            channel memory, the offset exceeds half the signal bandwidth or
            the SNR is one the channel cannot model (noise_variance).
    """
    scale = np.array([noise_std(profile, imp.snr_db)])
    (stream,), taps, phase_0 = propagate((frame,), profile, (mode,), imp.cfo, (rng,), scale)
    return ReceivedFrame(stream=stream[0], taps=taps[0], phase_0=float(phase_0[0]))
