"""Shared oracle helpers: direct constructions independent of the package internals."""

import numpy as np

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
