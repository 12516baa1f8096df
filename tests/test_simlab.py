"""Monte Carlo engine: seeding, aggregation, correlation dumps."""

import dataclasses
import hashlib
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binomtest

from cfolab import channel, estimator, simlab
from cfolab.channel import ChannelProfile, ImpairmentSpec, transmit
from cfolab.cli import main
from cfolab.errors import ConfigError
from cfolab.sca import sca_build_preamble
from cfolab.signal import CazacParams
from cfolab.simlab import (
    ExperimentConfig,
    SweepCell,
    TrialRecord,
    dump_correlations,
    run_sweep,
    run_trial,
    trial_rng,
    wilson_interval,
)


def _cfg(**overrides):
    base = dict(
        n_fft=128, r1=2, r2=8, cp_len=16,
        channel=ChannelProfile(path_count=4, decay=2.0, mode="varying"),
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
        rec = run_trial(cfg, math.inf, "proposed", trial)
        assert rec.ifo_correct
        assert abs(rec.total_error) < 1e-6


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
        cfg = _cfg(n_fft=n_fft, r1=r1, r2=r2, channel=ChannelProfile(4, 2.0, mode=mode),
                   cfo_true=cfo, snr_grid_db=(snr_db,), trials_per_point=5000,
                   estimators=("proposed",), ffo_stage_enabled=True, master_seed=1)
        lag = n_fft // r1
        m = n_fft - lag
        s2 = channel.noise_variance(cfg.channel, snr_db)
        predicted = (r1 / (2 * math.pi)) ** 2 * (
            s2 * lag / (m * m) * mean_inv_g + s2 * s2 / (2 * m) * mean_inv_g2
        )
        ratio = run_sweep(cfg).cells[0].ffo_mse / predicted
        assert 0.9 < ratio < 1.1, (n_fft, r1, mode, snr_db, ratio)


def test_sweep_bit_identical():
    cfg = _cfg(trials_per_point=40)
    assert run_sweep(cfg) == run_sweep(cfg)


def test_sweep_empty_for_zero_trials():
    result = run_sweep(_cfg(trials_per_point=0))
    assert result.cells == ()


def test_sweep_cell_bookkeeping():
    cfg = _cfg(trials_per_point=30, snr_grid_db=(5.0,))
    result = run_sweep(cfg)
    assert len(result.cells) == 2  # one per estimator
    for cell in result.cells:
        assert cell.trials == 30
        assert cell.failure_prob == cell.failures / cell.trials
        lo, hi = cell.wilson_ci_95
        assert 0.0 <= lo <= cell.failure_prob <= hi <= 1.0
        assert cell.mode == "varying"


@pytest.mark.parametrize("failures,trials", [(0, 100), (3, 50), (50, 100), (97, 100)])
def test_wilson_interval_matches_scipy(failures, trials):
    lo, hi = wilson_interval(failures, trials)
    ref = binomtest(failures, trials).proportion_ci(confidence_level=0.95, method="wilson")
    assert lo == pytest.approx(ref.low, abs=1e-12)
    assert hi == pytest.approx(ref.high, abs=1e-12)


def test_proposed_failure_rare_at_high_snr():
    """At 20 dB with offset 20 the integer stage almost never misses."""
    cfg = _cfg(snr_grid_db=(20.0,), trials_per_point=1)
    failures = sum(
        not run_trial(cfg, 20.0, "proposed", t).ifo_correct for t in range(10_000)
    )
    assert failures / 10_000 < 1e-2


def test_mode_gap_smaller_for_proposed():
    """The varying-vs-static failure gap is the baseline's weakness, not ours."""
    gaps = {}
    for estimator in ("proposed", "sca"):
        rates = {}
        for mode in ("static", "varying"):
            cfg = _cfg(channel=ChannelProfile(4, 2.0, mode=mode), master_seed=123)
            bad = sum(
                not run_trial(cfg, 5.0, estimator, t).ifo_correct for t in range(3000)
            )
            rates[mode] = bad / 3000
        assert rates["varying"] >= rates["static"]
        gaps[estimator] = rates["varying"] - rates["static"]
    assert gaps["proposed"] < gaps["sca"]


def test_dump_correlations_single_path_peaks():
    cfg = _cfg(channel=ChannelProfile(1, 2.0, mode="varying"))
    table = dump_correlations(cfg, 20.0, seed=1)
    assert table.shape == (128, 3)
    assert int(table[:, 1].argmax()) == 20
    assert int(table[:, 2].argmax()) == 20
    assert np.all(table[:, 1:] >= 0)


def test_dump_correlations_multipath_comb_support():
    """Noiseless combs live exactly on (20 - rate*m) mod N per path delay m."""
    cfg = _cfg()
    table = dump_correlations(cfg, math.inf, seed=3)
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
    cfg = _cfg(channel=ChannelProfile(4, 2.0, mode="varying"))
    frame = simlab._preamble_for(cfg.n_fft, cfg.r1, cfg.r2, cfg.cp_len)[1]
    rx = transmit(frame, cfg.channel, ImpairmentSpec(cfg.cfo_true, math.inf), np.random.default_rng(3))
    assert rx.taps.shape == (2, 4)
    m1 = int(np.argmax(np.abs(rx.taps[0])))
    assert int(dump_correlations(cfg, math.inf, 3)[:, 1].argmax()) == (20 - 2 * m1) % 128


def test_config_is_frozen():
    cfg = _cfg()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_fft = 64


def _record_tuple(rec):
    """A TrialRecord as a tuple whose NaN fields compare equal to each other."""
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in dataclasses.astuple(rec))


def _reference_cells(cfg):
    """The sweep as a plain loop over run_trial, aggregated cell by cell."""
    cells = []
    for snr_db in cfg.snr_grid_db:
        for estimator in cfg.estimators:
            failures, sq_sum, sq_count = 0, 0.0, 0
            for t in range(cfg.trials_per_point):
                rec = run_trial(cfg, snr_db, estimator, t)
                failures += not rec.ifo_correct
                if math.isfinite(rec.ffo_error):
                    sq_sum += rec.ffo_error * rec.ffo_error
                    sq_count += 1
            cells.append(SweepCell(
                snr_db=snr_db, estimator=estimator, mode=cfg.channel.mode,
                trials=cfg.trials_per_point, failures=failures,
                failure_prob=failures / cfg.trials_per_point,
                ffo_mse=sq_sum / sq_count if sq_count else math.nan,
                wilson_ci_95=wilson_interval(failures, cfg.trials_per_point),
            ))
    return tuple(cells)


def _other_mode(cfg):
    other = "static" if cfg.channel.mode == "varying" else "varying"
    return dataclasses.replace(cfg, channel=dataclasses.replace(cfg.channel, mode=other))


@pytest.mark.parametrize("ffo", [False, True])
@pytest.mark.parametrize("mode", ["static", "varying"])
@pytest.mark.parametrize("estimator", ["proposed", "sca"])
def test_sweep_trials_replay_through_run_trial(monkeypatch, estimator, mode, ffo):
    """Every trial of a shared pass, in either mode, equals run_trial for its cell and index.

    The sweep of `mode` and of the other mode share their passes; chunks
    of 7 trials hold 3 (snr, trial) pairs of both modes, so boundaries fall
    inside and between the 10-trial cells, over finite and infinite SNR.
    Each mode's cells, down to the last bit of ffo_mse, equal a plain loop
    over run_trial, the engine's pass over a batch of one.
    """
    cfg = _cfg(
        n_fft=64, channel=ChannelProfile(4, 2.0, mode=mode), cfo_true=20.3 if ffo else 20.0,
        ffo_stage_enabled=ffo, snr_grid_db=(-5.0, 10.0, math.inf), trials_per_point=10,
        estimators=(estimator,),
    )
    cfgs = (cfg, _other_mode(cfg))
    rows = []
    run_batch = simlab._run_trials

    def recording(pass_cfgs, estimator, snrs, trial_indices, scale):
        assert pass_cfgs == cfgs
        out = run_batch(pass_cfgs, estimator, snrs, trial_indices, scale)
        assert all(a.shape == (len(snrs), 2) for a in out)
        for m, mode_cfg in enumerate(pass_cfgs):
            rows.extend(
                (mode_cfg, snr, t, *values)
                for snr, t, *values in zip(snrs.tolist(), trial_indices.tolist(),
                                           *(a[:, m].tolist() for a in out))
            )
        return out

    monkeypatch.setattr(simlab, "_chunk_trials", lambda cfg: 7)
    monkeypatch.setattr(simlab, "_run_trials", recording)
    results = simlab.run_sweeps(cfgs)
    monkeypatch.undo()
    for mode_cfg in cfgs:
        assert sorted((snr, t) for c, snr, t, *_ in rows if c is mode_cfg) == sorted(
            (snr, t) for snr in cfg.snr_grid_db for t in range(10)
        )
    for mode_cfg, snr, t, correct, ffo_error, total_error in rows:
        rec = TrialRecord(snr, estimator, correct, ffo_error, total_error)
        assert _record_tuple(rec) == _record_tuple(run_trial(mode_cfg, snr, estimator, t)), (
            mode_cfg.channel.mode, snr, t)
    for mode_cfg, result in zip(cfgs, results):
        assert result.config is mode_cfg
        assert result.cells == _reference_cells(mode_cfg)
        assert any(cell.failures for cell in result.cells)


def test_run_sweeps_equals_run_sweep_per_config():
    """Shared passes change no cell: each result equals its config's own sweep, ffo_mse bit for bit.

    The configs cover both modes, both estimators and the fractional stage
    off and on, in one call and in mixed order.  A repeated config gets the
    same result, and a grid of -0.0 dB, which equals 0.0 but seeds other
    streams, is not merged with the 0.0 dB grid of the other mode.
    """
    cfgs = [
        _cfg(n_fft=64, channel=ChannelProfile(4, 2.0, mode=mode), estimators=(estimator,),
             cfo_true=20.3 if ffo else 20.0, ffo_stage_enabled=ffo,
             snr_grid_db=(0.0, 6.0, math.inf), trials_per_point=12)
        for ffo in (True, False)
        for estimator in ("sca", "proposed")
        for mode in ("static", "varying")
    ]
    signed_zero = dataclasses.replace(_other_mode(cfgs[0]), snr_grid_db=(-0.0, 6.0, math.inf))
    cfgs += [cfgs[2], signed_zero]
    results = simlab.run_sweeps(cfgs)
    assert len(results) == len(cfgs)
    for cfg, result in zip(cfgs, results):
        single = run_sweep(cfg)
        assert result == single
        assert [struct.pack("<d", c.ffo_mse) for c in result.cells] == [
            struct.pack("<d", c.ffo_mse) for c in single.cells
        ]
        assert {c.mode for c in result.cells} == {cfg.channel.mode}
    assert results[-1].cells != results[1].cells
    assert simlab.run_sweeps([]) == ()


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
    rec = run_trial(cfg, 10.0, "proposed", 0)
    assert not rec.ifo_correct
    assert math.isfinite(rec.ffo_error) and math.isnan(rec.total_error)
    (cell,) = run_sweep(cfg).cells
    assert cell.failures == 4 and math.isfinite(cell.ffo_mse)


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


# Traced peak allowed for a sweep: the engine's chunks keep it a few times
# CHUNK_BYTES whatever the trial count (one pass over all of these trials of
# both modes would hold about 120 MiB for either estimator).
PEAK_CHUNKS = 6


@pytest.mark.parametrize("estimator,trials", [("proposed", 190), ("sca", 190)])
def test_sweep_memory_is_bounded_by_chunks(estimator, trials):
    """Both modes of a shared pass together stay within the chunk bound."""
    cfg = _cfg(n_fft=1024, cfo_true=20.3, ffo_stage_enabled=True, snr_grid_db=(10.0, 20.0),
               trials_per_point=trials, estimators=(estimator,))
    cfgs = (cfg, _other_mode(cfg))
    assert 2 * trials * len(cfgs) >= 3 * simlab._chunk_trials(cfg)
    tracemalloc.start()
    try:
        simlab.run_sweeps(cfgs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_CHUNKS * simlab.CHUNK_BYTES, peak / 2**20


def test_sweep_peak_does_not_grow_with_the_trial_count(monkeypatch):
    """Each pass adds its outcomes into per-cell tallies: 8x the trials, the same traced peak."""
    monkeypatch.setattr(simlab, "CHUNK_BYTES", 64 << 10)

    def peak(trials):
        cfg = _cfg(n_fft=64, trials_per_point=trials, estimators=("proposed",))
        tracemalloc.start()
        try:
            simlab.run_sweeps((cfg, _other_mode(cfg)))
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
    channel._frame_windows,
    channel._tap_std,
    channel._mean_power,
    estimator._conj_chirps,
)


def test_engine_caches_are_bounded_and_read_only():
    frame = simlab._preamble_for(128, 2, 8, 16)[1]
    params = (CazacParams(128, 2), CazacParams(128, 8))
    arrays = (
        channel._frame_windows(frame, 4),
        channel._tap_std(4, 2.0),
        estimator._conj_chirps(params[0]),
        estimator._conj_chirps(params),
    )
    for cache in ENGINE_CACHES:
        assert cache.cache_info().maxsize is not None, cache
    for values in arrays:
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[..., 0] = 0.0
    assert type(channel._mean_power(4, 2.0)) is float


def test_engine_caches_stay_bounded_over_many_master_seeds():
    """Every master seed builds a new Schmidl-Cox frame; the window cache must not keep them all."""
    for cache in ENGINE_CACHES:
        cache.cache_clear()
    for seed in range(50):
        run_sweep(_cfg(n_fft=64, snr_grid_db=(10.0,), trials_per_point=1, master_seed=1000 + seed))
    for cache in ENGINE_CACHES:
        info = cache.cache_info()
        assert info.currsize <= info.maxsize, (cache, info)
    assert channel._frame_windows.cache_info().misses > channel._frame_windows.cache_info().maxsize
