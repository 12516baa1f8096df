"""Monte Carlo engine: seeding, aggregation, correlation dumps."""

import dataclasses
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binomtest

from cfolab import channel, estimator, simlab
from cfolab.channel import ChannelProfile
from cfolab.cli import main
from cfolab.errors import ConfigError
from cfolab.sca import sca_build_preamble
from cfolab.signal import CazacParams
from cfolab.simlab import (
    ExperimentConfig,
    SweepCell,
    TrialRecord,
    dump_correlations,
    run_single_frame,
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
    cfg = _cfg(channel=ChannelProfile(4, 2.0, mode="varying"))
    rx, est = run_single_frame(cfg, math.inf, np.random.default_rng(3))
    assert len(rx.realizations) == 2
    taps_1 = rx.realizations[0].taps
    m1 = int(np.argmax(np.abs(taps_1)))
    assert est.peaks.loc_1 == (20 - 2 * m1) % 128


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


@pytest.mark.parametrize("ffo", [False, True])
@pytest.mark.parametrize("mode", ["static", "varying"])
@pytest.mark.parametrize("estimator", ["proposed", "sca"])
def test_sweep_trials_replay_through_run_trial(monkeypatch, estimator, mode, ffo):
    """Every trial a sweep runs equals run_trial for its cell and index.

    Chunks of 4 trials put boundaries inside and between the 10-trial
    cells, over finite and infinite SNR; the cells, down to the last bit of
    ffo_mse, equal a plain loop over run_trial, the engine's pass over a
    batch of one.
    """
    cfg = _cfg(
        n_fft=64, channel=ChannelProfile(4, 2.0, mode=mode), cfo_true=20.3 if ffo else 20.0,
        ffo_stage_enabled=ffo, snr_grid_db=(-5.0, 10.0, math.inf), trials_per_point=10,
        estimators=(estimator,),
    )
    rows = []
    run_batch = simlab._run_trials

    def recording(cfg, estimator, snrs, trial_indices, scale):
        out = run_batch(cfg, estimator, snrs, trial_indices, scale)
        rows.extend(zip(snrs.tolist(), trial_indices.tolist(), *(a.tolist() for a in out)))
        return out

    monkeypatch.setattr(simlab, "_chunk_trials", lambda cfg: 4)
    monkeypatch.setattr(simlab, "_run_trials", recording)
    result = run_sweep(cfg)
    monkeypatch.undo()
    assert sorted((snr, t) for snr, t, *_ in rows) == sorted(
        (snr, t) for snr in cfg.snr_grid_db for t in range(10)
    )
    for snr, t, correct, ffo_error, total_error in rows:
        rec = TrialRecord(snr, estimator, correct, ffo_error, total_error)
        assert _record_tuple(rec) == _record_tuple(run_trial(cfg, snr, estimator, t)), (snr, t)
    assert result.cells == _reference_cells(cfg)
    assert any(cell.failures for cell in result.cells)


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
# CHUNK_BYTES whatever the trial count (one pass over all of these trials
# would hold about 60 MiB for either estimator).
PEAK_CHUNKS = 6


@pytest.mark.parametrize("estimator,trials", [("proposed", 190), ("sca", 190)])
def test_sweep_memory_is_bounded_by_chunks(estimator, trials):
    cfg = _cfg(n_fft=1024, cfo_true=20.3, ffo_stage_enabled=True, snr_grid_db=(10.0, 20.0),
               trials_per_point=trials, estimators=(estimator,))
    assert 2 * trials >= 3 * simlab._chunk_trials(cfg)
    tracemalloc.start()
    try:
        run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_CHUNKS * simlab.CHUNK_BYTES, peak / 2**20


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
        channel._tap_std(4, 2.0, True),
        estimator._conj_chirps(params[0]),
        estimator._conj_chirps(params),
    )
    for cache in ENGINE_CACHES:
        assert cache.cache_info().maxsize is not None, cache
    for values in arrays:
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[..., 0] = 0.0
    assert type(channel._mean_power(4, 2.0, True)) is float


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
