"""Shared oracle helpers: direct constructions independent of the package internals,
and the channel engine's tap draws for the statistics tests."""

from itertools import repeat

import numpy as np
from hypothesis import settings

from cfolab.channel import propagate
from cfolab.signal import PreambleSpec

# Tier 1 runs the same examples every time: each @given draws from a seed
# fixed by its test, keeps its own max_examples, and reads no example
# database, so a run neither finds new failures nor replays old ones.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

# Filled by the acceptance suite; echoed after the run so the per-criterion
# verdict lines survive output capture.
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def chirp(n_fft: int, rate: int) -> np.ndarray:
    """Quadratic-phase chirp from the raw formula (reference construction)."""
    n = np.arange(n_fft)
    return np.exp(1j * np.pi * rate * n * n / n_fft)


def dft_matrix(n: int) -> np.ndarray:
    """Explicit unitary DFT matrix F[k, n] = exp(-j*2*pi*k*n/N) / sqrt(N), O(N^2)."""
    k = np.arange(n)
    # Reduce k*n mod N in integers so the phase stays exact for large N.
    return np.exp(-2j * np.pi * (np.outer(k, k) % n) / n) / np.sqrt(n)


def synth_rx(n_fft, rate, taps, cfo, phase0):
    """Directly evaluate the circular received-signal model, term by term.

    y(n) = sum_m h(m) * x((n - m) mod N) * exp(j*(2*pi*cfo*n/N + phase0)),
    built with explicit loops so it stays independent of the library's
    convolution and frame plumbing.
    """
    x = chirp(n_fft, rate)
    y = np.zeros(n_fft, dtype=complex)
    n = np.arange(n_fft)
    for m, h in enumerate(taps):
        y += h * x[(n - m) % n_fft]
    return y * np.exp(1j * (2 * np.pi * cfo * n / n_fft + phase0))


def rayleigh_taps(rng, path_count, decay):
    """Random exponential-profile taps (unnormalized)."""
    power = np.exp(-np.arange(path_count) / decay)
    return np.sqrt(power / 2) * (
        rng.standard_normal(path_count) + 1j * rng.standard_normal(path_count)
    )


# Frames per propagate call in engine_taps.  Without noise, propagate holds no
# noise buffer, but it returns each frame's stream beside its taps, so the
# chunk bounds the streams a call holds.
ENGINE_TAPS_CHUNK = 4096


def engine_taps(profile, mode, rng, count):
    """The (count, 2, L) taps channel.propagate draws for count frames from rng, in one mode.

    These are the taps a sweep's frames see: propagate draws each frame's
    taps and common phase from rng, one frame after another, and at scale 0
    draws no noise.  Row 1 of a frame is its symbol-1 taps and row 2 its
    symbol-2 taps, a copy of row 1 in static mode.
    """
    frame = PreambleSpec(16, 2, 4, profile.path_count - 1).frame
    chunks = []
    for start in range(0, count, ENGINE_TAPS_CHUNK):
        frames = min(ENGINE_TAPS_CHUNK, count - start)
        _, taps, _ = propagate((frame,), profile, (mode,), 0.0, repeat(rng, frames), np.zeros(frames))
        chunks.append(taps)
    return np.concatenate(chunks)
