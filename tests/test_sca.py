"""Schmidl-Cox baseline: preamble structure, metric correctness, channel sensitivity."""

import math

import numpy as np
import pytest

from cfolab.channel import ChannelProfile, ImpairmentSpec, transmit
from cfolab.errors import ConfigError
from cfolab.sca import sca_build_preamble, sca_estimate, sca_estimate_batch
from cfolab.simlab import ExperimentConfig, run_trial


def _preamble(n_fft=128, cp=16, seed=1):
    return sca_build_preamble(n_fft, cp, np.random.default_rng(seed))


def test_preamble_halves_identical():
    pre = _preamble()
    s1 = pre.frame.symbols[0]
    np.testing.assert_allclose(s1[:64], s1[64:], atol=1e-12)


def test_preamble_unit_average_power():
    pre = _preamble()
    for sym in pre.frame.symbols:
        assert np.mean(np.abs(sym) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_preamble_odd_bins_empty():
    pre = _preamble(n_fft=64)
    spectrum = np.fft.fft(pre.frame.symbols[0])
    assert np.max(np.abs(spectrum[1::2])) < 1e-9


def test_preamble_deterministic():
    a = _preamble(seed=5)
    b = _preamble(seed=5)
    np.testing.assert_array_equal(a.frame.samples, b.frame.samples)
    np.testing.assert_array_equal(a.v, b.v)


def test_preamble_differential_sequence():
    pre = _preamble(n_fft=64)
    np.testing.assert_allclose(pre.v * pre.pn_even_1, pre.pn_2[0::2], atol=1e-12)
    assert np.max(np.abs(np.abs(pre.v) - 1.0)) < 1e-12


def _rx(pre, cfo, seed, mode="static", snr_db=np.inf, paths=4):
    profile = ChannelProfile(path_count=paths, decay=2.0, mode=mode)
    imp = ImpairmentSpec(cfo=cfo, snr_db=snr_db, noise_enabled=np.isfinite(snr_db))
    return transmit(pre.frame, profile, imp, np.random.default_rng(seed))


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


def test_zero_offset():
    pre = _preamble()
    est = sca_estimate(_rx(pre, 0.0, seed=9), pre)
    assert abs(est.total) < 1e-9


def test_fractional_and_odd_offsets():
    pre = _preamble()
    for cfo in (20.4, -13.0, 7.0):
        est = sca_estimate(_rx(pre, cfo, seed=31), pre)
        assert abs(est.total - cfo) < 1e-6, cfo


def test_search_range_validation():
    pre = _preamble(n_fft=64)
    with pytest.raises(ConfigError):
        sca_estimate(_rx(pre, 0.0, seed=1), pre, search_range=17)


def test_degenerate_input():
    pre = _preamble(n_fft=64)
    rx = _rx(pre, 0.0, seed=1)
    from cfolab.channel import ReceivedFrame
    from cfolab.errors import DegenerateSignalError

    dead = ReceivedFrame(
        n_fft=rx.n_fft, cp_len=rx.cp_len,
        stream=np.zeros_like(rx.stream),
        symbols=tuple(np.zeros_like(s) for s in rx.symbols),
    )
    with pytest.raises(DegenerateSignalError):
        sca_estimate(dead, pre)


def test_batch_rows_match_single_frames():
    """Each row of a stacked pass equals the one-frame estimate; a dead row reads NaN alone."""
    pre = _preamble(n_fft=64)
    frames = [_rx(pre, cfo, seed=s, snr_db=10.0) for s, cfo in enumerate((20.4, -13.0, 6.0))]
    stack = np.stack([np.stack(rx.symbols) for rx in frames] + [np.zeros((2, 64), dtype=complex)])
    for ffo_stage in (True, False):
        ffo, ifo, metric = sca_estimate_batch(stack, pre, ffo_stage=ffo_stage)
        assert metric.shape == (4, 33)
        for i, rx in enumerate(frames):
            est = sca_estimate(rx, pre, ffo_stage=ffo_stage)
            assert (ffo[i], ifo[i], ifo[i] + ffo[i]) == (est.ffo, est.ifo_residual, est.total)
        assert math.isnan(ffo[-1])


def test_varying_channel_fails_more_than_static():
    """The differential metric needs an unchanged channel; block fading breaks it."""
    failures = {}
    for mode in ("static", "varying"):
        cfg = ExperimentConfig(
            n_fft=128, r1=2, r2=8, cp_len=16,
            channel=ChannelProfile(path_count=4, decay=2.0, mode=mode),
            cfo_true=20.0, snr_grid_db=(10.0,), trials_per_point=1,
            estimators=("sca",), ffo_stage_enabled=False, master_seed=77,
        )
        failures[mode] = sum(
            not run_trial(cfg, 10.0, "sca", t).ifo_correct for t in range(10_000)
        )
    assert failures["varying"] > failures["static"]
