"""Chirp generation, unitary transforms, and preamble frame assembly."""

import numpy as np
import pytest

from cfolab.errors import ConfigError
from cfolab.signal import (
    CazacParams,
    PreambleSpec,
    build_preamble,
    cazac_generate,
    dft,
    idft,
)

from conftest import chirp, dft_matrix

VALID_PARAMS = [
    CazacParams(64, 2),
    CazacParams(64, 8),
    CazacParams(128, 2),
    CazacParams(128, 8),
    CazacParams(4, 2),
    CazacParams(256, 4),
]


def test_cazac_small_example():
    # exp(j*pi*2*n^2/4) for n = 0..3, evaluated by hand
    x = cazac_generate(CazacParams(4, 2))
    np.testing.assert_allclose(x, [1, 1j, 1, 1j], atol=1e-12)


@pytest.mark.parametrize("params", VALID_PARAMS)
def test_cazac_unit_modulus(params):
    x = cazac_generate(params)
    assert np.max(np.abs(np.abs(x) - 1.0)) < 1e-12


@pytest.mark.parametrize("params", VALID_PARAMS)
def test_cazac_matches_direct_formula(params):
    np.testing.assert_allclose(
        cazac_generate(params), chirp(params.n_fft, params.rate), atol=1e-12
    )


def test_cazac_periodicity():
    x = cazac_generate(CazacParams(64, 2))
    np.testing.assert_allclose(x[:32], x[32:], atol=1e-12)


@pytest.mark.parametrize("params", VALID_PARAMS)
def test_cazac_period_property(params):
    x = cazac_generate(params)
    p = params.period
    np.testing.assert_allclose(x, np.roll(x, p), atol=1e-12)


@pytest.mark.parametrize("params", VALID_PARAMS)
def test_cazac_perfect_periodic_autocorrelation(params):
    """Zero at every circular lag off the period comb, unit modulus on it."""
    x = cazac_generate(params)
    n = params.n_fft
    for d in range(n):
        ac = np.vdot(x, np.roll(x, -d)) / n
        if d % params.period == 0:
            assert abs(abs(ac) - 1.0) < 1e-10
        else:
            assert abs(ac) < 1e-10


@pytest.mark.parametrize(
    "n_fft,rate",
    [
        (63, 2),     # not a power of two
        (64, 3),     # odd rate
        (64, 6),     # does not divide
        (64, 0),
        (64, -2),
        (64, 64),    # period would be odd
    ],
)
def test_cazac_params_validation(n_fft, rate):
    with pytest.raises(ConfigError):
        CazacParams(n_fft, rate)


def test_dft_impulse():
    n = 64
    x = np.zeros(n, dtype=complex)
    x[0] = 1.0
    np.testing.assert_allclose(dft(x), np.full(n, 1 / np.sqrt(n)), atol=1e-12)


def test_dft_matches_numpy_fft():
    rng = np.random.default_rng(11)
    for n in (4, 64, 128, 512):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(dft(x), np.fft.fft(x) / np.sqrt(n), atol=1e-10)
        np.testing.assert_allclose(idft(x), np.fft.ifft(x) * np.sqrt(n), atol=1e-10)


@pytest.mark.parametrize("n", [4, 64, 1024])
def test_dft_matches_explicit_matrix(n):
    """dft/idft equal the definitional O(N^2) sums, built independently of any FFT."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = dft_matrix(n)
    np.testing.assert_allclose(dft(x), f @ x, rtol=0, atol=1e-9)
    np.testing.assert_allclose(idft(x), np.conj(f) @ x, rtol=0, atol=1e-9)


def test_dft_returns_double_precision():
    x = np.ones(8, dtype=np.complex64)
    assert dft(x).dtype == np.complex128
    assert idft(x.real).dtype == np.complex128


def test_dft_parseval():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    ex = np.sum(np.abs(x) ** 2)
    ek = np.sum(np.abs(dft(x)) ** 2)
    assert abs(ek - ex) / ex < 1e-12


def test_idft_round_trip():
    rng = np.random.default_rng(4)
    for n in (8, 64, 256):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(idft(dft(x)), x, atol=1e-12)
        np.testing.assert_allclose(dft(idft(x)), x, atol=1e-12)


def test_dft_linear():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    a = complex(rng.standard_normal(), rng.standard_normal())
    b = complex(rng.standard_normal(), rng.standard_normal())
    np.testing.assert_allclose(dft(a * x + b * y), a * dft(x) + b * dft(y), atol=1e-12)


def test_dft_of_cazac_constant_modulus_on_support():
    """The spectrum of an r-rate chirp lives on bins k = 0 mod r, all |X| = sqrt(r)."""
    params = CazacParams(64, 2)
    x_f = dft(cazac_generate(params))
    on = np.arange(0, 64, params.rate)
    off = np.setdiff1d(np.arange(64), on)
    assert np.max(np.abs(np.abs(x_f[on]) - np.sqrt(params.rate))) < 1e-10
    assert np.max(np.abs(x_f[off])) < 1e-10


def test_transforms_run_along_the_last_axis_of_a_stack():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 2, 64)) + 1j * rng.standard_normal((3, 2, 64))
    for transform in (dft, idft):
        stacked = transform(x)
        for i in range(3):
            for s in range(2):
                np.testing.assert_array_equal(stacked[i, s], transform(x[i, s]))
    with pytest.raises(ConfigError):
        dft(np.zeros((4, 12), dtype=complex))
    with pytest.raises(ConfigError):
        dft(np.complex128(1.0))


@pytest.mark.parametrize("n", [3, 12, 100])
def test_dft_rejects_non_power_of_two(n):
    with pytest.raises(ConfigError):
        dft(np.zeros(n, dtype=complex))


def test_build_preamble_without_cp():
    spec = PreambleSpec(CazacParams(64, 2), CazacParams(64, 8), 0)
    frame = build_preamble(spec)
    assert frame.samples.size == 128
    np.testing.assert_allclose(
        frame.samples,
        np.concatenate([cazac_generate(spec.params_1), cazac_generate(spec.params_2)]),
        atol=0,
    )


def test_build_preamble_cp_copy():
    spec = PreambleSpec(CazacParams(64, 2), CazacParams(64, 8), 16)
    frame = build_preamble(spec)
    assert frame.samples.size == 160
    # each CP is a copy of the corresponding symbol tail
    np.testing.assert_array_equal(frame.samples[0:16], frame.samples[64:80])
    np.testing.assert_array_equal(frame.samples[80:96], frame.samples[144:160])


def test_build_preamble_symbol_periods():
    spec = PreambleSpec(CazacParams(128, 2), CazacParams(128, 8), 16)
    frame = build_preamble(spec)
    s1, s2 = frame.samples.reshape(2, frame.block_len)[:, frame.cp_len :]
    np.testing.assert_allclose(s1, np.roll(s1, 64), atol=1e-12)
    np.testing.assert_allclose(s2, np.roll(s2, 16), atol=1e-12)
    # 64 is the smallest period for the rate-2 symbol: a quarter shift differs
    assert np.max(np.abs(s1 - np.roll(s1, 32))) > 0.1


def test_preamble_spec_validation():
    with pytest.raises(ConfigError):
        PreambleSpec(CazacParams(64, 2), CazacParams(128, 8), 16)
    with pytest.raises(ConfigError):
        PreambleSpec(CazacParams(64, 2), CazacParams(64, 8), -1)
