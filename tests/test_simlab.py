"""Monte Carlo engine: seeding, aggregation, correlation dumps."""

import dataclasses
import hashlib
import math
import re
import struct
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.stats import binomtest

from cfolab import channel, estimator, simlab
from cfolab.channel import ChannelProfile, transmit
from cfolab.cli import main
from cfolab.errors import ConfigError
from cfolab.estimator import CfoReport, estimate_cfo, wrap_offset
from cfolab.sca import sca_build_preamble, sca_estimate
from cfolab.simlab import (
    ExperimentConfig,
    dump_correlations,
    run_sweep,
    run_trial,
    trial_rng,
)


def _cfg(**overrides):
    base = dict(
        n_fft=128, r1=2, r2=8, cp_len=16,
        channel=ChannelProfile(path_count=4, decay=2.0),
        cfo_true=20.0, snr_grid_db=(0.0, 10.0), trials_per_point=50,
        estimators=("proposed", "sca"), ffo_stage_enabled=False, master_seed=9,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_separability_enforced():
    with pytest.raises(ConfigError):
        _cfg(r2=4)  # r1*L = 8 > 4
    with pytest.raises(ConfigError):
        _cfg(r2=32, r1=2)  # 32 >= 128/4
    with pytest.raises(ConfigError):
        _cfg(cfo_true=64.0)
    with pytest.raises(ConfigError):
        _cfg(estimators=("proposed", "magic"))
    with pytest.raises(ConfigError):
        _cfg(cfo_true=20.5, ffo_stage_enabled=False)


def test_config_caps_the_sweep_size():
    """A config may sweep MAX_SWEEP_TRIALS trials over its grid, and not one more."""
    cap = simlab.MAX_SWEEP_TRIALS
    assert cap >= 11 * 10**6  # the paper's 11-point grid at 10**6 trials per point
    assert _cfg(snr_grid_db=(0.0,), trials_per_point=cap).trials_per_point == cap
    assert _cfg(snr_grid_db=(0.0, 10.0), trials_per_point=cap // 2).trials_per_point == cap // 2
    for grid, trials in (((0.0,), cap + 1), ((0.0, 10.0), cap // 2 + 1)):
        with pytest.raises(ConfigError, match="trials a sweep may run"):
            _cfg(snr_grid_db=grid, trials_per_point=trials)


def test_trial_deterministic():
    cfg = _cfg()
    a = run_trial(cfg, 10.0, "proposed", 7)
    b = run_trial(cfg, 10.0, "proposed", 7)
    assert a == b


def test_trial_noiseless_sentinel():
    cfg = _cfg()
    for trial in range(20):
        ((ifo_correct, _, total_error),) = run_trial(cfg, math.inf, "proposed", trial)
        assert ifo_correct
        assert abs(total_error) < 1e-6


def test_trial_streams_differ_between_estimators():
    """Channel draws for the two estimators at one (snr, trial) are independent streams."""
    cfg = _cfg()
    a = trial_rng(cfg, 10.0, "proposed", 3).standard_normal(8)
    b = trial_rng(cfg, 10.0, "sca", 3).standard_normal(8)
    assert not np.allclose(a, b)


def test_trial_rng_is_the_seed_list_stream():
    """trial_rng seeds PCG64 from [master, snr float64 bits, estimator id, trial], keys of any width."""
    ids = {"proposed": 0, "sca": 1}
    for master in (0, 1, 2**32, 2**64 - 1):
        cfg = _cfg(master_seed=master)
        for snr in (0.0, -0.0, 5e-324, 2.0, -5.0, math.inf):
            snr_key = struct.unpack("<Q", struct.pack("<d", snr))[0]
            for estimator, est_id in ids.items():
                for t in (0, 1, 2**32 - 1, 2**32):
                    expected = np.random.PCG64([master, snr_key, est_id, t]).state
                    assert trial_rng(cfg, snr, estimator, t).bit_generator.state == expected
        pre = simlab._sca_preamble_for(master, 64, 16)
        ref = sca_build_preamble(64, 16, np.random.default_rng([master, 0x5CA_9EA3]))
        np.testing.assert_array_equal(pre.frame.samples, ref.frame.samples)
        np.testing.assert_array_equal(pre.v, ref.v)
    with pytest.raises(ValueError):
        trial_rng(_cfg(), 0.0, "sca", -1)


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf, 4000.0, -4000.0])
def test_config_rejects_snr_the_channel_cannot_model(snr_db):
    """NaN, -inf and SNRs whose linear power over- or underflows have no noise variance."""
    with pytest.raises(ConfigError, match="SNR"):
        _cfg(snr_grid_db=(10.0, snr_db))
    _cfg(snr_grid_db=(10.0, math.inf, 3000.0, -3000.0))


@pytest.mark.parametrize("overrides,duplicate", [
    ({"snr_grid_db": (0.0, 10.0, 0.0)}, "SNR 0.0 dB"),
    ({"snr_grid_db": (0.0, -0.0)}, "SNR -0.0 dB"),
    ({"snr_grid_db": (math.inf, math.inf)}, "SNR inf dB"),
    ({"estimators": ("proposed", "proposed")}, "estimator 'proposed'"),
    ({"estimators": ("sca", "proposed", "sca")}, "estimator 'sca'"),
])
def test_config_rejects_a_duplicate_snr_or_estimator(overrides, duplicate):
    """A repeated grid point or estimator would rerun its cells; SNRs compare by value."""
    with pytest.raises(ConfigError, match=re.escape(duplicate)):
        _cfg(**overrides)


@pytest.mark.parametrize("modes,reason", [
    ((), "at least one channel mode"),
    (("varying", "warping"), "'warping'"),
    (("static", "varying", "static"), "mode 'static' is listed twice"),
])
def test_config_rejects_an_empty_unknown_or_repeated_mode(modes, reason):
    """The modes are an axis of the sweep, checked as the estimators are."""
    with pytest.raises(ConfigError, match=re.escape(reason)):
        _cfg(modes=modes)
    assert _cfg().modes == ("varying",)


@pytest.mark.parametrize("overrides,reason", [
    ({"n_fft": 100}, "power of two"),
    ({"n_fft": 100, "estimators": ("sca",)}, "power of two"),
    ({"n_fft": 64, "cp_len": 1}, "too short for 4 paths"),
    ({"n_fft": 64, "cp_len": 1, "estimators": ("sca",)}, "too short for 4 paths"),
    ({"n_fft": 64, "cp_len": 200}, "cp_len"),
    ({"n_fft": 64, "cp_len": 200, "estimators": ("sca",)}, "cp_len"),
    ({"r2": 10, "estimators": ("sca",)}, "rate must be a positive divisor of n_fft"),
    ({"n_fft": 2**40, "estimators": ("sca",)}, "n_fft must be at most 65536"),
])
@pytest.mark.parametrize("trials", [1])
def test_config_rejects_what_its_sweep_would_at_any_trial_count(overrides, reason, trials):
    """A config is one its sweep could run, whichever estimators it lists: its preamble and CP are checked."""
    with pytest.raises(ConfigError, match=re.escape(reason)):
        _cfg(trials_per_point=trials, **overrides)


def test_config_checks_its_preamble_without_drawing_a_schmidl_cox_one(monkeypatch):
    """Validating a config builds its PreambleSpec only; the engine's first pass draws the SCA preamble."""
    def no_draw(*args):
        raise AssertionError("drew a Schmidl-Cox preamble to validate a config")

    monkeypatch.setattr(simlab, "_sca_preamble_for", no_draw)
    cfg = _cfg(estimators=("sca", "proposed"))
    assert simlab._preamble_for(cfg.n_fft, cfg.r1, cfg.r2, cfg.cp_len).r2 == cfg.r2


@pytest.mark.parametrize("reject", [
    lambda: _cfg(estimators=("proposed", "bogus")),
    lambda: run_trial(_cfg(), 0.0, "bogus", 0),
    lambda: trial_rng(_cfg(), 0.0, "bogus", 0),
], ids=["ExperimentConfig", "run_trial", "trial_rng"])
def test_an_unknown_estimator_is_rejected_the_same_way_everywhere(reject):
    """Every entry point looks the name up in simlab.ESTIMATORS; a name it lacks is a ConfigError."""
    with pytest.raises(ConfigError, match=re.escape("unknown estimator 'bogus'")):
        reject()


def test_fractional_stage_mse_matches_its_analytical_variance():
    """The sweep's ffo_mse matches the lag-D autocorrelation's first-order MSE to within 10%.

    With D = N/r1 the lag, M = N - D the samples it averages, s2 the noise
    variance and G = sum_m |h_m|^2 the first symbol's channel gain:
    MSE = (r1/2pi)^2 * E_G[s2*D/(M^2*G) + s2^2/(2*M*G^2)].  For r1 > 2 the two
    lags share samples, whose first-order phase errors cancel, hence D/M^2
    where disjoint halves (Schmidl & Cox 1997) give 1/M; Morelli & Mengali
    (IEEE Commun. Lett. 3(3), 1999) treat repeated parts.  E_G runs over 2e6
    draws of sum_m p_m*Exp(1).  L = 4 keeps E[1/G^2] finite, and 20 dB and up
    keeps the first-order expansion good.  At 5000 trials per cell, master
    seeds 1-3 read 0.97-1.04, so 10% is about 3.5 standard deviations.  At
    r1 = 4 the offset 21.3 wraps to 1.3, and to -0.7 at rate 2, so a wrong
    fractional rate in ESTIMATORS moves ffo_ref and fails the check.
    """
    profile = ChannelProfile(4, 2.0)
    gain = np.random.default_rng(0).standard_exponential((2_000_000, 4)) @ profile.tap_powers()
    mean_inv_g, mean_inv_g2 = np.mean(1.0 / gain), np.mean(1.0 / gain**2)
    for n_fft, r1, r2, cfo, mode, snr_db in [
        (128, 2, 8, 20.3, "static", 20.0),
        (128, 2, 8, 20.3, "varying", 30.0),
        (256, 4, 16, 21.3, "varying", 20.0),
    ]:
        cfg = _cfg(n_fft=n_fft, r1=r1, r2=r2, modes=(mode,), cfo_true=cfo, snr_grid_db=(snr_db,), trials_per_point=5000,
                   estimators=("proposed",), ffo_stage_enabled=True, master_seed=1)
        lag = n_fft // r1
        m = n_fft - lag
        s2 = channel.noise_variance(cfg.channel, snr_db)
        predicted = (r1 / (2 * math.pi)) ** 2 * (
            s2 * lag / (m * m) * mean_inv_g + s2 * s2 / (2 * m) * mean_inv_g2
        )
        ratio = run_sweep(cfg).ffo_mse[0] / predicted
        assert 0.9 < ratio < 1.1, (n_fft, r1, mode, snr_db, ratio)


def test_sweep_bit_identical():
    cfg = _cfg(trials_per_point=40)
    assert run_sweep(cfg) == run_sweep(cfg)


def test_config_rejects_zero_trials():
    """A cell of no trials has no failure probability: the config refuses it."""
    for trials in (0, -1):
        with pytest.raises(ConfigError, match=re.escape(f"trials_per_point must be at least one, got {trials}")):
            _cfg(trials_per_point=trials)


def test_sweep_cell_bookkeeping():
    cfg = _cfg(trials_per_point=30, snr_grid_db=(5.0,))
    rows = list(run_sweep(cfg).rows())
    assert [key for key, *_ in rows] == [("varying", 5.0, "proposed"), ("varying", 5.0, "sca")]
    for _, failures, failure_prob, lo, hi, _ in rows:
        assert failure_prob == failures / 30
        assert 0.0 <= lo <= failure_prob <= hi <= 1.0


@pytest.mark.parametrize("failures,trials", [(0, 100), (3, 50), (50, 100), (97, 100)])
def test_wilson_interval_matches_scipy(failures, trials):
    (lo,), (hi,) = simlab._wilson(np.array([failures / trials]), trials)
    ref = binomtest(failures, trials).proportion_ci(confidence_level=0.95, method="wilson")
    assert lo == pytest.approx(ref.low, abs=1e-12)
    assert hi == pytest.approx(ref.high, abs=1e-12)


def _scalar_wilson(failures, trials):
    """The scalar Wilson interval that the sweep's array formula replaced, transcribed as it was."""
    z = 1.959963984540054  # the standard normal's 97.5% quantile
    p = failures / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _exact_wilson(failures, trials):
    """_scalar_wilson with exact ends: a lower bound of 0 at no failures, an upper of 1 at all."""
    lo, hi = _scalar_wilson(failures, trials)
    return (0.0 if failures == 0 else lo, 1.0 if failures == trials else hi)


def test_wilson_bounds_keep_the_scalar_formula_bits():
    """The sweep's column form of the Wilson bounds gives the scalar formula's bits, ends exact.

    Every (failures, trials) with trials <= 64, and 0, 1, t // 2, t - 1 and
    t failures out of 1e3, 1e6 and 2**24 trials.  The lower bound is exactly
    0 at no failures and the upper exactly 1 at all failures; every other
    bound has _scalar_wilson's bits.
    """
    cases = {t: range(t + 1) for t in range(1, 65)}
    cases.update({t: (0, 1, t // 2, t - 1, t) for t in (10**3, 10**6, 2**24)})
    for trials, counts in cases.items():
        want = [tuple(x.hex() for x in _exact_wilson(f, trials)) for f in counts]
        lo, hi = simlab._wilson(np.array(counts, dtype=float) / trials, trials)
        assert [(a.hex(), b.hex()) for a, b in zip(lo.tolist(), hi.tolist())] == want, trials


def test_wilson_bounds_are_exact_with_no_failures_and_with_all_failures():
    """The ends are exact at every trial count 1-20,000; the bare formula missed 0 at 4,013, 1 at 6,341."""
    for trials in range(1, 20_001):
        lo, hi = simlab._wilson(np.array([0.0, 1.0]), trials)
        assert (lo[0], hi[1]) == (0.0, 1.0), trials


def test_a_cell_without_a_finite_ffo_error_has_nan_mse_and_equal_sweeps_stay_equal(monkeypatch):
    """ffo_mse is NaN where every trial is degenerate, and two such sweeps still compare equal."""

    def degenerate(streams, spec, ffo_stage):
        t = len(streams)
        nan = np.full(t, math.nan)
        return CfoReport(nan, nan, np.zeros((t, 2, spec.n_fft)), np.zeros((t, 2), dtype=int))

    monkeypatch.setattr(simlab, "estimate_cfo_batch", degenerate)
    cfg = _cfg(snr_grid_db=(10.0,), trials_per_point=3, estimators=("proposed",))
    first, second = run_sweep(cfg), run_sweep(cfg)
    assert first.failures == (3,) and math.isnan(first.ffo_mse[0])
    assert first == second


def test_proposed_failure_rare_at_high_snr():
    """At 20 dB with offset 20 the integer stage almost never misses."""
    cfg = _cfg(snr_grid_db=(20.0,), trials_per_point=1)
    failures = 0
    for t in range(10_000):
        ((ifo_correct, _, _),) = run_trial(cfg, 20.0, "proposed", t)
        failures += not ifo_correct
    assert failures / 10_000 < 1e-2


def test_mode_gap_smaller_for_proposed():
    """The varying-vs-static failure gap is the baseline's weakness, not ours."""
    gaps = {}
    cfg = _cfg(modes=("static", "varying"), master_seed=123)
    for estimator in ("proposed", "sca"):
        bad = {"static": 0, "varying": 0}
        for t in range(3000):
            for mode, (ifo_correct, _, _) in zip(cfg.modes, run_trial(cfg, 5.0, estimator, t)):
                bad[mode] += not ifo_correct
        rates = {mode: count / 3000 for mode, count in bad.items()}
        assert rates["varying"] >= rates["static"]
        gaps[estimator] = rates["varying"] - rates["static"]
    assert gaps["proposed"] < gaps["sca"]


def test_dump_correlations_single_path_peaks():
    cfg = _cfg(channel=ChannelProfile(1, 2.0), snr_grid_db=(20.0,), master_seed=1)
    table = dump_correlations(cfg)
    assert table.shape == (128, 3)
    assert int(table[:, 1].argmax()) == 20
    assert int(table[:, 2].argmax()) == 20
    assert np.all(table[:, 1:] >= 0)


def test_dump_correlations_multipath_comb_support():
    """Noiseless combs live exactly on (20 - rate*m) mod N per path delay m."""
    cfg = _cfg(snr_grid_db=(math.inf,), master_seed=3)
    table = dump_correlations(cfg)
    support_1 = {(20 - 2 * m) % 128 for m in range(4)}
    support_2 = {(20 - 8 * m) % 128 for m in range(4)}
    for tau, c1, c2 in table:
        if int(tau) not in support_1:
            assert c1 < 1e-9
        if int(tau) not in support_2:
            assert c2 < 1e-9
    # anchor tooth is shared, everything else is separated
    assert support_1 & support_2 == {20}


def test_run_single_frame_exposes_realizations():
    """dump_correlations' frame replays with transmit from the same seed, taps and all."""
    cfg = _cfg(modes=("varying",), snr_grid_db=(math.inf,), master_seed=3)
    frame = simlab._preamble_for(cfg.n_fft, cfg.r1, cfg.r2, cfg.cp_len).frame
    rx = transmit(frame, cfg.channel, cfg.cfo_true, math.inf, np.random.default_rng(3), mode="varying")
    assert rx.taps.shape == (2, 4)
    m1 = int(np.argmax(np.abs(rx.taps[0])))
    assert int(dump_correlations(cfg)[:, 1].argmax()) == (20 - 2 * m1) % 128


def test_config_is_frozen():
    cfg = _cfg()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_fft = 64


def _reference_rows(cfg):
    """The sweep's rows() as a plain loop over run_trial's per-mode outcomes, aggregated cell by cell."""
    rows = []
    trials = cfg.trials_per_point
    for m, mode in enumerate(cfg.modes):
        for snr_db in cfg.snr_grid_db:
            for estimator in cfg.estimators:
                failures, sq_sum, sq_count = 0, 0.0, 0
                for t in range(trials):
                    ifo_correct, ffo_error, _ = run_trial(cfg, snr_db, estimator, t)[m]
                    failures += not ifo_correct
                    if math.isfinite(ffo_error):
                        sq_sum += ffo_error * ffo_error
                        sq_count += 1
                rows.append((
                    (mode, snr_db, estimator), failures, failures / trials,
                    *_exact_wilson(failures, trials), sq_sum / sq_count if sq_count else math.nan,
                ))
    return rows


@pytest.mark.parametrize("ffo", [False, True])
@pytest.mark.parametrize("mode", ["static", "varying"])
@pytest.mark.parametrize("estimator", ["proposed", "sca"])
def test_sweep_trials_replay_through_run_trial(monkeypatch, estimator, mode, ffo):
    """Every trial of a shared pass, in either mode, equals run_trial's outcome for its cell and index.

    The config sweeps `mode` and then the other mode in shared passes;
    chunks of 7 trials hold 3 (snr, trial) pairs of both modes, so
    boundaries fall inside and between the 10-trial cells, over finite and
    infinite SNR.  Each mode's cells, down to the last bit of ffo_mse, equal
    a plain loop over run_trial, the engine's pass over a batch of one.
    """
    other = "static" if mode == "varying" else "varying"
    cfg = _cfg(
        n_fft=64, modes=(mode, other), cfo_true=20.3 if ffo else 20.0,
        ffo_stage_enabled=ffo, snr_grid_db=(-5.0, 10.0, math.inf), trials_per_point=10,
        estimators=(estimator,),
    )
    rows = []
    run_batch = simlab._run_trials

    def recording(pass_cfgs, estimator, snrs, trial_indices, scale):
        assert pass_cfgs == (cfg,)
        (out,) = run_batch(pass_cfgs, estimator, snrs, trial_indices, scale)
        assert all(a.shape == (len(snrs), 2) for a in out)
        for m in range(2):
            rows.extend(
                (m, snr, t, *values)
                for snr, t, *values in zip(snrs.tolist(), trial_indices.tolist(),
                                           *(a[:, m].tolist() for a in out))
            )
        return [out]

    monkeypatch.setattr(simlab, "_chunk_trials", lambda cfgs: 7)
    monkeypatch.setattr(simlab, "_run_trials", recording)
    result = run_sweep(cfg)
    monkeypatch.undo()
    for m in range(2):
        assert sorted((snr, t) for k, snr, t, *_ in rows if k == m) == sorted(
            (snr, t) for snr in cfg.snr_grid_db for t in range(10)
        )
    for m, snr, t, *outcome in rows:
        np.testing.assert_array_equal(outcome, run_trial(cfg, snr, estimator, t)[m],
                                      err_msg=f"{cfg.modes[m]} {snr} {t}")
    assert result.config == cfg
    assert list(result.rows()) == _reference_rows(cfg)
    for mode in cfg.modes:
        assert any(f for (row_mode, *_), f, *_ in result.rows() if row_mode == mode), mode


@pytest.mark.parametrize("snr_db", [10.0, math.inf])
@pytest.mark.parametrize("mode", ["static", "varying"])
@pytest.mark.parametrize("estimator", ["proposed", "sca"])
def test_one_frame_path_replays_a_sweep_trial(estimator, mode, snr_db):
    """transmit from a trial's generator, then the one-frame estimator, gives run_trial's errors.

    The one-frame path (transmit, estimate_cfo or sca_estimate) and the
    engine's batch of one must agree bit for bit on ffo_error and
    total_error.
    """
    cfg = _cfg(
        n_fft=64, modes=(mode,), cfo_true=20.3,
        ffo_stage_enabled=True, snr_grid_db=(snr_db,), estimators=(estimator,),
    )
    if estimator == "proposed":
        spec = simlab._preamble_for(cfg.n_fft, cfg.r1, cfg.r2, cfg.cp_len)
        frame, estimate, rate = spec.frame, partial(estimate_cfo, spec=spec), cfg.r1
    else:
        pre = simlab._sca_preamble_for(cfg.master_seed, cfg.n_fft, cfg.cp_len)
        frame, estimate, rate = pre.frame, partial(sca_estimate, pre=pre), 2
    for t in range(20):
        rng = trial_rng(cfg, snr_db, estimator, t)
        rx = transmit(frame, cfg.channel, cfg.cfo_true, snr_db, rng, mode=mode)
        est = estimate(rx.stream, ffo_stage=True)
        total_error = math.nan if est.failed else est.total - cfg.cfo_true
        replay = (abs(total_error) < 0.5, est.ffo - wrap_offset(cfg.cfo_true, rate), total_error)
        (outcome,) = run_trial(cfg, snr_db, estimator, t)
        np.testing.assert_array_equal(replay, outcome, err_msg=str(t))


def _ffo_mse_bits(rows):
    return [struct.pack("<d", ffo_mse) for *_, ffo_mse in rows]


@pytest.mark.parametrize("ffo", [False, True])
@pytest.mark.parametrize("modes", [("static", "varying"), ("varying", "static")],
                         ids=["static-first", "varying-first"])
def test_each_mode_of_a_config_sweeps_as_it_does_alone(modes, ffo):
    """A two-mode config's cells for each mode equal its one-mode config's, ffo_mse bit for bit.

    The modes of a config share each trial's generator, which must change
    no cell.  Both estimators run, with the fractional stage off and on and
    the modes in either order.  A grid of -0.0 dB, which equals 0.0 but
    seeds other streams, is checked the same way, and its cells must not be
    those of the 0.0 dB grid.
    """
    sweeps = []
    for zero in (0.0, -0.0):
        cfg = _cfg(n_fft=64, modes=modes, cfo_true=20.3 if ffo else 20.0, ffo_stage_enabled=ffo,
                   snr_grid_db=(zero, 6.0, math.inf), trials_per_point=12)
        shared = list(run_sweep(cfg).rows())
        alone = [
            row for mode in modes for row in run_sweep(dataclasses.replace(cfg, modes=(mode,))).rows()
        ]
        assert [mode for (mode, _, _), *_ in shared] == [mode for mode in modes for _ in range(6)]
        assert shared == alone
        assert _ffo_mse_bits(shared) == _ffo_mse_bits(alone)
        sweeps.append(shared)
    if ffo:  # with the fractional stage off, every ffo_mse is 0 whatever the stream
        assert _ffo_mse_bits(sweeps[0]) != _ffo_mse_bits(sweeps[1])


@pytest.mark.parametrize("ffo", [False, True])
def test_sweeps_over_fft_sizes_equal_one_sweep_per_size(monkeypatch, ffo):
    """run_sweeps over N = 64 and 128 gives each size run_sweep's cells for its config alone.

    Both estimators run in both modes over a finite and an infinite SNR, and
    ffo_mse is compared bit for bit.  CHUNK_BYTES is cut to the streams of
    7 (snr, trial) pairs in both modes and at both sizes, so chunks cross
    the 10-trial cells.  The stream key holds no N, so the shared pass
    builds one trial_rng generator per (snr, estimator, trial): half of
    what a sweep per N builds.
    """
    cfg = _cfg(n_fft=64, modes=("varying", "static"), cfo_true=20.3 if ffo else 20.0,
               ffo_stage_enabled=ffo, snr_grid_db=(6.0, math.inf), trials_per_point=10)
    cfgs = tuple(dataclasses.replace(cfg, n_fft=n_fft) for n_fft in (64, 128))
    alone = [run_sweep(size_cfg) for size_cfg in cfgs]
    monkeypatch.setattr(simlab, "CHUNK_BYTES", 7 * 2 * 32 * (64 + 16 + 128 + 16))
    chunks = []
    run_batch = simlab._run_trials

    def recording(pass_cfgs, estimator, snrs, trial_indices, scale):
        assert pass_cfgs == cfgs
        chunks.append(snrs.tolist())
        return run_batch(pass_cfgs, estimator, snrs, trial_indices, scale)

    generators = []
    build = simlab.trial_rng

    def counting(*args):
        generators.append(args[1:])
        return build(*args)

    monkeypatch.setattr(simlab, "_run_trials", recording)
    monkeypatch.setattr(simlab, "trial_rng", counting)
    shared = simlab.run_sweeps(cfg, (64, 128))
    monkeypatch.undo()
    assert max(map(len, chunks)) == 7
    assert any(len(set(chunk)) > 1 for chunk in chunks)
    assert sorted(generators, key=repr) == sorted(
        ((snr, est, t) for snr in (6.0, math.inf) for est in ("proposed", "sca") for t in range(10)),
        key=repr,
    )
    assert len(shared) == 2
    for result, size_cfg, want in zip(shared, cfgs, alone):
        assert result.config == size_cfg
        assert result == want
        assert _ffo_mse_bits(result.rows()) == _ffo_mse_bits(want.rows())


def test_sweeps_over_no_fft_size_return_nothing(monkeypatch):
    monkeypatch.setattr(simlab, "_run_trials", lambda *args: pytest.fail("a trial ran"))
    assert simlab.run_sweeps(_cfg(trials_per_point=2), ()) == ()


@pytest.mark.parametrize("paths", [1, 4])
@pytest.mark.parametrize("snr_db", [10.0, math.inf])
@pytest.mark.parametrize("modes", [("varying", "static"), ("static", "varying")])
def test_shared_stream_draws_equal_fresh_generator_draws(paths, snr_db, modes):
    """Each mode's draws from a shared stream equal a fresh trial_rng generator's draws.

    The fresh draws are spelled out in the documented order: symbol-1 tap
    normals and the phase; for varying mode, symbol-2 tap normals and a
    discarded phase; then the noise, which a noiseless row does not draw.
    """
    cfg = _cfg(channel=ChannelProfile(paths, 2.0), snr_grid_db=(snr_db,))
    block = 128 + 16
    noisy = math.isfinite(snr_db)
    for t in range(5):
        rng = trial_rng(cfg, snr_db, "proposed", t)
        taps = np.empty((2, 2, 2 * paths))
        white = np.empty((2, 4 * block)) if noisy else None
        phase = channel.draw_frame(modes, rng, taps, white)
        for m, mode in enumerate(modes):
            fresh = trial_rng(cfg, snr_db, "proposed", t)
            first = fresh.standard_normal(2 * paths)
            assert phase == 2.0 * np.pi * fresh.random()
            second = first
            if mode == "varying":
                second = fresh.standard_normal(2 * paths)
                fresh.random()
            np.testing.assert_array_equal(taps[m], np.stack([first, second]))
            if noisy:
                np.testing.assert_array_equal(white[m], fresh.standard_normal(4 * block))
            alone = trial_rng(cfg, snr_db, "proposed", t)
            alone_taps = np.empty((1, 2, 2 * paths))
            alone_white = np.empty((1, 4 * block)) if noisy else None
            assert channel.draw_frame((mode,), alone, alone_taps, alone_white) == phase
            np.testing.assert_array_equal(alone_taps[0], taps[m])
            if noisy:
                np.testing.assert_array_equal(alone_white[0], white[m])
            assert alone.bit_generator.state == fresh.bit_generator.state
        # The shared generator ends where the last mode's own stream ends.
        assert rng.bit_generator.state == fresh.bit_generator.state


def test_failed_resolution_is_a_failure_with_finite_ffo_error(monkeypatch):
    """A resolver that finds no offset (NaN) counts as a failure but keeps its fractional error."""
    from cfolab import estimator as estimator_module

    def give_up(loc_1, loc_2, rate_2, n_fft):
        return math.nan

    monkeypatch.setattr(estimator_module, "resolve_ifo", give_up)
    cfg = _cfg(cfo_true=20.3, ffo_stage_enabled=True, snr_grid_db=(10.0,), trials_per_point=4,
               estimators=("proposed",))
    ((ifo_correct, ffo_error, total_error),) = run_trial(cfg, 10.0, "proposed", 0)
    assert not ifo_correct
    assert math.isfinite(ffo_error) and math.isnan(total_error)
    result = run_sweep(cfg)
    assert result.failures == (4,) and math.isfinite(result.ffo_mse[0])


# sha256 of the CSVs of `cfolab fig2 --paper --trials 20 --seed 9 --ffo off|on`,
# computed with the per-trial loop the batched engine replaced.
FIG2_PAPER_SHA256 = {
    ("off", 64): "4dadf0478977e7e67928e2c1069492a5a7d5bb92d2d422ea09ddb1fb1a7d6889",
    ("off", 128): "61ee86f62e59b73246c77d83446540404362034703b216f9bb364833de2a62a1",
    ("on", 64): "cac8eedff57e2074c52d2c33274511b5cfe809c84fea19239e98c3fc4b305cbc",
    ("on", 128): "c4d3420868a8200471107fa60525962dc0b038f9ef1191805efe2360bb538102",
}


@pytest.mark.parametrize("ffo", ["off", "on"])
def test_fig2_paper_csv_digests_are_pinned(tmp_path, capsys, ffo):
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--paper", "--trials", "20", "--seed", "9", "--ffo", ffo,
                 "--out", str(out)]) == 0
    for n_fft in (64, 128):
        data = (tmp_path / f"fig2_n{n_fft}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == FIG2_PAPER_SHA256[(ffo, n_fft)], n_fft


# sha256 of the CSV of `cfolab fig1 --n 128 --paths 4 --seed 9`, computed with
# numpy's complex forms of the receiver's and the channel's real scalings.
FIG1_SHA256 = "9028d16ac03415734775317f6cfcb91cf78ffb0f47d6fac0c1da84da6a866cc0"


def test_fig1_csv_digest_is_pinned(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--n", "128", "--paths", "4", "--seed", "9", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG1_SHA256


# Traced peak allowed for a sweep: the engine's chunks keep it a few times
# CHUNK_BYTES whatever the trial count (one pass over all of these trials of
# both modes would hold about 120 MiB for either estimator).
PEAK_CHUNKS = 6


@pytest.mark.parametrize("estimator,trials", [("proposed", 190), ("sca", 190)])
def test_sweep_memory_is_bounded_by_chunks(estimator, trials):
    """Both modes of a shared pass together stay within the chunk bound, for one N and for two.

    A pass over two FFT sizes holds the noise draw of the longer block and
    a stream per size; a pass over N = 1024 twice holds two streams of the
    largest size.
    """
    cfg = _cfg(n_fft=1024, cfo_true=20.3, ffo_stage_enabled=True, snr_grid_db=(10.0, 20.0),
               trials_per_point=trials, estimators=(estimator,), modes=("varying", "static"))
    for sizes in ((1024,), (512, 1024), (1024, 1024)):
        cfgs = tuple(dataclasses.replace(cfg, n_fft=n_fft) for n_fft in sizes)
        assert 2 * trials * len(cfg.modes) >= 3 * simlab._chunk_trials(cfgs)
        tracemalloc.start()
        try:
            simlab.run_sweeps(cfg, sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PEAK_CHUNKS * simlab.CHUNK_BYTES, (sizes, peak / 2**20)


def test_sweep_peak_does_not_grow_with_the_trial_count(monkeypatch):
    """Each pass adds its outcomes into per-cell tallies: 8x the trials, the same traced peak."""
    monkeypatch.setattr(simlab, "CHUNK_BYTES", 64 << 10)

    def peak(trials):
        cfg = _cfg(n_fft=64, trials_per_point=trials, estimators=("proposed",),
                   modes=("varying", "static"))
        tracemalloc.start()
        try:
            run_sweep(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)
    # Fill the interpreter's tuple free lists first: otherwise they grow over
    # a run of many small passes and show in the peak.
    spare = [tuple(range(k)) + (object(),) for k in range(8) for _ in range(3000)]
    del spare
    small, large = peak(100), peak(800)
    assert large - small < 4096, (small, large)


# The per-config constants a sweep computes once and then reads.
ENGINE_CACHES = (
    channel._cfo_ramp,
    channel._tap_stats,
    simlab._preamble_for,
    simlab._sca_preamble_for,
)


def test_engine_caches_are_bounded_and_read_only():
    """Every cached array refuses a write, so no caller can change what later sweeps read."""
    spec = simlab._preamble_for(128, 2, 8, 16)
    frame, pre = spec.frame, simlab._sca_preamble_for(1, 128, 16)
    powers, mean_power, std = channel._tap_stats(4, 2.0)
    arrays = (
        channel._cfo_ramp(5.3, frame.n_fft, 2 * frame.block_len),
        powers,
        std,
        frame.samples,
        spec.dechirp,
        pre.pn_even_1,
        pre.pn_2,
        pre.v,
        pre.kernel,
        pre.frame.samples,
    )
    assert spec.dechirp is spec.dechirp and spec.frame is frame
    # The builder behind the Schmidl-Cox cache still returns arrays its caller may write.
    assert sca_build_preamble(128, 16, np.random.default_rng(1)).frame.samples.flags.writeable
    for cache in ENGINE_CACHES:
        assert cache.cache_info().maxsize is not None, cache
    for values in arrays:
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[..., 0] = 0.0
    assert type(mean_power) is float
