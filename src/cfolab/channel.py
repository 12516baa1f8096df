"""Rayleigh block-fading multipath emulation with CFO, common phase, and AWGN.

Each OFDM symbol sees an L-tap channel whose tap powers follow an exponential
delay profile exp(-l/decay).  The carrier offset rotates the whole frame with
a continuously running sample index (one oscillator), and a single common
phase is drawn per frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .signal import PreambleFrame

MODE_STATIC = "static"
MODE_VARYING = "varying"


@dataclass(frozen=True)
class ChannelProfile:
    """Statistical description of the multipath channel.

    Args:
        path_count: number of taps L.
        decay: exponential delay-profile constant; tap l has mean power
            exp(-l/decay) before normalization.
        mode: "static" reuses one tap realization for the whole frame;
            "varying" redraws taps independently per symbol (block fading).
        normalize_power: scale every realization by 1/sqrt(sum exp(-l/decay))
            so the ensemble-mean received power is 1.
    """

    path_count: int
    decay: float
    mode: str = MODE_VARYING
    normalize_power: bool = True

    def __post_init__(self) -> None:
        if self.path_count < 1:
            raise ConfigError(f"path_count must be >= 1, got {self.path_count}")
        if not self.decay > 0:
            raise ConfigError(f"decay must be positive, got {self.decay}")
        if self.mode not in (MODE_STATIC, MODE_VARYING):
            raise ConfigError(f"mode must be '{MODE_STATIC}' or '{MODE_VARYING}', got {self.mode!r}")

    def tap_powers(self) -> np.ndarray:
        """Ensemble mean power per tap, after optional normalization (read-only)."""
        return _tap_powers(self.path_count, self.decay, self.normalize_power)

    def mean_power(self) -> float:
        """Total ensemble mean received power for a unit-power input."""
        return _mean_power(self.path_count, self.decay, self.normalize_power)


@lru_cache(maxsize=32)
def _tap_powers(path_count: int, decay: float, normalize_power: bool) -> np.ndarray:
    p = np.exp(-np.arange(path_count) / decay)
    if normalize_power:
        p = p / p.sum()
    p.flags.writeable = False
    return p


@lru_cache(maxsize=32)
def _mean_power(path_count: int, decay: float, normalize_power: bool) -> float:
    return float(_tap_powers(path_count, decay, normalize_power).sum())


@lru_cache(maxsize=32)
def _tap_std(path_count: int, decay: float, normalize_power: bool) -> np.ndarray:
    std = np.sqrt(_tap_powers(path_count, decay, normalize_power) / 2.0)
    std.flags.writeable = False
    return std


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of the channel: complex taps plus the frame's common phase."""

    taps: np.ndarray
    phase_0: float


@dataclass(frozen=True)
class ImpairmentSpec:
    """Receiver-side impairments for one transmission.

    cfo is normalized to the subcarrier spacing; snr_db relates the total
    mean received signal power to the per-sample complex noise variance.
    Noise is drawn unless snr_db is infinite; +inf is the noiseless run.
    """

    cfo: float
    snr_db: float = math.inf


@dataclass(frozen=True, eq=False)
class ReceivedFrame:
    """Channel output: the CP-intact stream plus the two CP-stripped windows."""

    n_fft: int
    cp_len: int
    stream: np.ndarray
    symbols: tuple[np.ndarray, ...]
    realizations: tuple[ChannelRealization, ...] | None = None


def tap_std(profile: ChannelProfile) -> np.ndarray:
    """Per-tap standard deviation of the real and of the imaginary part (read-only)."""
    return _tap_std(profile.path_count, profile.decay, profile.normalize_power)


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


def draw_channel(profile: ChannelProfile, rng: np.random.Generator) -> ChannelRealization:
    """Draw one tap realization and a common phase.

    Each tap is zero-mean circularly-symmetric complex Gaussian with variance
    equal to its profile power; phase_0 is uniform on [0, 2*pi).
    """
    taps = complex_taps(tap_std(profile), rng.standard_normal(2 * profile.path_count))
    return ChannelRealization(taps=taps, phase_0=_draw_phase(rng))


def draw_frame(
    profile: ChannelProfile,
    rng: np.random.Generator,
    tap_normals: np.ndarray,
    white: np.ndarray | None,
) -> float:
    """Draw one frame's random inputs in stream order; return its common phase.

    The order is: symbol-1 tap normals (real parts, then imaginary parts)
    and the common phase; in varying mode, symbol-2 tap normals and a second
    phase that is drawn and discarded (one oscillator per frame); then, if
    white is given, the noise normals (real parts, then imaginary parts).
    tap_normals is a (2, 2L) buffer, one row per symbol; in static mode row 2
    is a copy of row 1.  This is the order draw_channel twice (or once) and
    two noise draws would consume, so every frame stays replayable from its
    generator alone.
    """
    rng.standard_normal(out=tap_normals[0])
    phase_0 = _draw_phase(rng)
    if profile.mode == MODE_VARYING:
        rng.standard_normal(out=tap_normals[1])
        _draw_phase(rng)
    else:
        tap_normals[1] = tap_normals[0]
    if white is not None:
        rng.standard_normal(out=white)
    return phase_0


def noise_variance(profile: ChannelProfile, snr_db: float) -> float:
    """Per-sample complex noise variance for a unit-power transmit waveform."""
    if math.isinf(snr_db):
        return 0.0
    return profile.mean_power() / (10.0 ** (snr_db / 10.0))


def noise_std(profile: ChannelProfile, snr_db: float) -> float:
    """Standard deviation of the real and of the imaginary noise part per sample."""
    return math.sqrt(noise_variance(profile, snr_db) / 2.0)


@lru_cache(maxsize=8)
def _cfo_ramp(cfo: float, n_fft: int, total_len: int) -> np.ndarray:
    ramp = np.exp(2j * np.pi * cfo * np.arange(total_len) / n_fft)
    ramp.flags.writeable = False
    return ramp


@lru_cache(maxsize=16)
def _frame_windows(frame: PreambleFrame, paths: int) -> np.ndarray:
    """Read-only (2, block_len, paths) convolution windows of a frame's two blocks.

    Window n of symbol s holds samples n-paths+1..n of its block, zeros
    before the block starts, so its dot product with the reversed taps is
    the full linear convolution truncated to the block.  PreambleFrame
    compares by identity, and the cache keeps the frames it keys alive.
    """
    padded = np.concatenate(
        [np.zeros((2, paths - 1), dtype=np.complex128), frame.samples.reshape(2, frame.block_len)],
        axis=1,
    )
    padded.flags.writeable = False
    return np.lib.stride_tricks.sliding_window_view(padded, paths, axis=1)


def propagate(
    frame: PreambleFrame,
    taps: np.ndarray,
    phase_0: np.ndarray,
    cfo: float,
    white: np.ndarray | None = None,
    scale: np.ndarray | None = None,
) -> np.ndarray:
    """Push T copies of a frame through T channel draws; return the (T, 2*block) streams.

    taps is (T, 2, L): the taps of each symbol.  Each CP-extended block is
    convolved with its symbol's taps, then the whole frame is rotated by
    exp(j*(2*pi*cfo*n/n_fft + phase_0)) with n running continuously from the
    first frame sample.  If white (T, 4*block: real parts, then imaginary
    parts) is given, complex noise scale * (re + j*im) is added last, with
    scale (T,) the per-row noise standard deviation; a row with scale 0
    adds exact zeros.

    Each output sample of the convolution is one dot product of L samples
    with the reversed taps, so a row does not depend on the batch it sits
    in: propagating a row alone or among any other rows gives the same
    bits.  The dot products need not sum in np.convolve's order, so a row
    can differ from np.convolve in the last bits (it does for L >= 8 with
    numpy 2.4's OpenBLAS on x86-64).

    Raises:
        ConfigError: if the CP cannot absorb the channel memory or the
            offset exceeds half the signal bandwidth.
    """
    paths = taps.shape[-1]
    if frame.cp_len < paths - 1:
        raise ConfigError(
            f"cp_len={frame.cp_len} too short for {paths} paths "
            f"(need >= {paths - 1})"
        )
    if not abs(cfo) < frame.n_fft / 2:
        raise ConfigError(f"|cfo| must be < n_fft/2 = {frame.n_fft / 2}, got {cfo}")
    blk = frame.block_len
    windows = _frame_windows(frame, paths)
    reversed_taps = np.ascontiguousarray(taps[..., ::-1])
    # (1, L) @ (L, 1) per output sample: numpy computes each as one BLAS dot.
    faded = windows[None, :, :, None, :] @ reversed_taps[:, :, None, :, None]
    stream = faded.reshape(taps.shape[0], 2 * blk)
    stream *= _cfo_ramp(cfo, frame.n_fft, 2 * blk)
    stream *= np.exp(1j * phase_0)[:, None]
    if white is not None:
        stream.real += scale[:, None] * white[:, : 2 * blk]
        stream.imag += scale[:, None] * white[:, 2 * blk :]
    return stream


def transmit(
    frame: PreambleFrame,
    profile: ChannelProfile,
    imp: ImpairmentSpec,
    rng: np.random.Generator,
) -> ReceivedFrame:
    """Push a preamble frame through the fading channel with CFO and AWGN.

    Per symbol, the CP-extended block is convolved with that symbol's taps,
    then the whole frame is rotated by exp(j*(2*pi*cfo*n/n_fft + phase_0))
    with n running continuously from the first frame sample.  Complex white
    noise is added last.  Returns the CP-intact stream and the two
    CP-stripped N-sample windows.  This is propagate for one frame, with
    the draws of draw_frame.

    Raises:
        ConfigError: if the CP cannot absorb the channel memory or the
            offset exceeds half the signal bandwidth.
    """
    noisy = not math.isinf(imp.snr_db)
    blk = frame.block_len
    tap_normals = np.empty((2, 2 * profile.path_count))
    white = np.empty((1, 4 * blk)) if noisy else None
    phase_0 = draw_frame(profile, rng, tap_normals, white[0] if noisy else None)
    taps = complex_taps(tap_std(profile), tap_normals)
    scale = np.array([noise_std(profile, imp.snr_db)]) if noisy else None
    stream = propagate(frame, taps[None], np.array([phase_0]), imp.cfo, white, scale)[0]

    first = ChannelRealization(taps=taps[0], phase_0=phase_0)
    second = first
    if profile.mode == MODE_VARYING:
        second = ChannelRealization(taps=taps[1], phase_0=phase_0)
    cp = frame.cp_len
    windows = tuple(stream[s * blk + cp : s * blk + cp + frame.n_fft].copy() for s in range(2))
    return ReceivedFrame(
        n_fft=frame.n_fft,
        cp_len=cp,
        stream=stream,
        symbols=windows,
        realizations=(first, second),
    )
