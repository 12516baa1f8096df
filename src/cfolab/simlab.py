"""Monte Carlo experiment engine with deterministic per-trial seeding.

Every trial derives its own random stream from (master_seed, snr cell,
estimator id, trial index), so sweep results are bit-identical regardless of
execution order and individual trials can be replayed in isolation.

A sweep runs each estimator's trials over the whole SNR grid as array passes
over a leading trial axis, in chunks of bounded size: only the random draws
loop per trial, each from its own generator.  The stream does not depend on
the channel mode, so sweeps that differ only in mode share their passes and
each trial's generator (run_sweeps).  run_trial is the same pass over a batch
of one.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .channel import (
    MODE_VARYING,
    ChannelProfile,
    ImpairmentSpec,
    noise_std,
    noise_variance,
    propagate,
    transmit,
)
from .errors import ConfigError
from .estimator import estimate_cfo, estimate_cfo_batch, wrap_offset

# sca_estimate, the one-frame form of sca_estimate_batch, stays bound here
# beside transmit and estimate_cfo: bench/spans.py traces these names.
from .sca import ScaPreamble, sca_build_preamble, sca_estimate, sca_estimate_batch  # noqa: F401
from .signal import CazacParams, PreambleFrame, PreambleSpec, build_preamble


def _proposed(cfg: ExperimentConfig) -> tuple[PreambleFrame, int, Callable]:
    spec, frame = _preamble_for(cfg.n_fft, cfg.r1, cfg.r2, cfg.cp_len)
    return frame, cfg.r1, partial(estimate_cfo_batch, spec=spec, ffo_stage=cfg.ffo_stage_enabled)


def _sca(cfg: ExperimentConfig) -> tuple[PreambleFrame, int, Callable]:
    pre = _sca_preamble_for(cfg.master_seed, cfg.n_fft, cfg.cp_len)
    return pre.frame, 2, partial(sca_estimate_batch, pre=pre, ffo_stage=cfg.ffo_stage_enabled)


# Every estimator a sweep can run: name -> (stream id, receiver).  The id is
# a word of each trial's seed key (trial_rng), so it never changes.
# receiver(cfg) returns the frame the estimator's trials transmit, the rate
# of its fractional stage and its batch form, which maps (T, 2*(N+cp))
# frame streams to (ffo, ifo, details).
ESTIMATORS: dict[str, tuple[int, Callable[[ExperimentConfig], tuple]]] = {
    "proposed": (0, _proposed),
    "sca": (1, _sca),
}


def _estimator(name: str) -> tuple[int, Callable]:
    """The ESTIMATORS entry of name; ConfigError for a name it lacks."""
    try:
        return ESTIMATORS[name]
    except KeyError:
        raise ConfigError(f"unknown estimator {name!r}") from None


# Stream tag separating the SCA preamble draw from trial streams.
_SCA_PREAMBLE_TAG = 0x5CA_9EA3

# Memory bound of the sweep engine: trials run in chunks sized so that the
# largest array of a chunk stays under this many bytes.
CHUNK_BYTES = 4 << 20

# Most trials one config may sweep, len(snr_grid_db) * trials_per_point.
# Memory does not grow with the trial count (the engine keeps per-cell
# tallies), so the cap bounds run time: at about 50 us a trial on 2 cores,
# 2**24 trials take some 14 minutes per estimator and mode.  It holds
# 10**6 trials per point on the paper's 11-point grid.
MAX_SWEEP_TRIALS = 2**24


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameterization of one Monte Carlo sweep."""

    n_fft: int
    r1: int
    r2: int
    cp_len: int
    channel: ChannelProfile
    cfo_true: float
    snr_grid_db: tuple[float, ...]
    trials_per_point: int
    estimators: tuple[str, ...] = tuple(ESTIMATORS)
    ffo_stage_enabled: bool = False
    master_seed: int = 1

    def __post_init__(self) -> None:
        paths = self.channel.path_count
        if not (self.r1 * paths <= self.r2 < self.n_fft / paths):
            raise ConfigError(
                f"separability requires r1*L <= r2 < n_fft/L, got "
                f"r1={self.r1} r2={self.r2} L={paths} n_fft={self.n_fft}"
            )
        if not abs(self.cfo_true) < self.n_fft / 2:
            raise ConfigError(f"|cfo_true| must be < n_fft/2, got {self.cfo_true}")
        if self.trials_per_point < 0:
            raise ConfigError(f"trials_per_point must be >= 0, got {self.trials_per_point}")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must hold at least one SNR")
        if len(self.snr_grid_db) * self.trials_per_point > MAX_SWEEP_TRIALS:
            raise ConfigError(
                f"{len(self.snr_grid_db)} SNRs x {self.trials_per_point} trials is more than "
                f"the {MAX_SWEEP_TRIALS} trials a sweep may run"
            )
        if not self.estimators:
            raise ConfigError("estimators must name at least one estimator")
        for i, est in enumerate(self.estimators):
            _estimator(est)
            if est in self.estimators[:i]:
                raise ConfigError(f"estimator {est!r} is listed twice")
        if not self.ffo_stage_enabled and self.cfo_true != int(self.cfo_true):
            raise ConfigError(
                "ffo_stage_enabled=False is only meaningful for integer cfo_true"
            )
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        seen = set()
        for snr_db in self.snr_grid_db:
            if snr_db in seen:  # by value: 0.0 and -0.0 are one point
                raise ConfigError(f"SNR {snr_db} dB repeats a point of snr_grid_db")
            seen.add(snr_db)
            noise_variance(self.channel, snr_db)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of a single transmission/estimation trial."""

    snr_db: float
    estimator: str
    ifo_correct: bool
    ffo_error: float
    total_error: float


@dataclass(frozen=True)
class SweepCell:
    """Aggregate over trials_per_point trials at one (snr, estimator, mode) cell."""

    snr_db: float
    estimator: str
    mode: str
    trials: int
    failures: int
    failure_prob: float
    ffo_mse: float
    wilson_ci_95: tuple[float, float]


@dataclass(frozen=True)
class SweepResult:
    """All cells of one sweep, in (snr, estimator) iteration order."""

    config: ExperimentConfig
    cells: tuple[SweepCell, ...]


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959963984540054  # the standard normal's 97.5% quantile
    if trials <= 0:
        raise ConfigError("wilson interval needs at least one trial")
    p = failures / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@lru_cache(maxsize=8)
def _preamble_for(n_fft: int, r1: int, r2: int, cp_len: int) -> tuple[PreambleSpec, PreambleFrame]:
    spec = PreambleSpec(CazacParams(n_fft, r1), CazacParams(n_fft, r2), cp_len)
    return spec, build_preamble(spec)


def _entropy_words(*keys: int) -> np.ndarray:
    """The uint32 entropy array np.random.SeedSequence builds from a list of these ints.

    Each key becomes its 32-bit words, least significant first, and 0 one
    zero word.  Seeding from this array gives the same stream as seeding
    from the list, without numpy's per-int coercion.
    """
    words = []
    for key in keys:
        if key < 0:
            raise ValueError(f"seed keys must be nonnegative, got {key}")
        while key > 0xFFFFFFFF:
            words.append(key & 0xFFFFFFFF)
            key >>= 32
        words.append(key)
    return np.array(words, dtype=np.uint32)


@lru_cache(maxsize=8)
def _sca_preamble_for(master_seed: int, n_fft: int, cp_len: int) -> ScaPreamble:
    rng = np.random.default_rng(_entropy_words(master_seed, _SCA_PREAMBLE_TAG))
    return sca_build_preamble(n_fft, cp_len, rng)


def _snr_key(snr_db: float) -> int:
    """Stable nonnegative integer key for an SNR value (works for +inf too): its float64 bits."""
    return struct.unpack("=Q", struct.pack("=d", snr_db))[0]


def trial_rng(cfg: ExperimentConfig, snr_db: float, estimator: str, trial_index: int) -> np.random.Generator:
    """Derive the deterministic random stream for one trial cell.

    The stream is np.random.default_rng([master_seed, snr key, estimator id,
    trial_index]); Generator(PCG64(...)) over the same entropy words builds
    it at less cost per call.
    """
    return np.random.Generator(
        np.random.PCG64(
            _entropy_words(cfg.master_seed, _snr_key(snr_db), _estimator(estimator)[0], trial_index)
        )
    )


def _run_trials(
    cfgs: tuple[ExperimentConfig, ...],
    estimator: str,
    snrs: np.ndarray,
    trial_indices: np.ndarray,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a batch of trials as one array pass, for each config of a shared pass.

    The configs differ at most in channel mode.  Trial i draws from
    trial_rng(cfg, snrs[i], estimator, trial_indices[i]), one generator for
    every mode (see channel.propagate); scale[i] is noise_std at snrs[i].
    Returns (ifo_correct, ffo_error, total_error), each (trials, configs).
    ffo_error is NaN for a degenerate trial; total_error is NaN for a
    degenerate trial and for one whose integer stage failed.
    """
    cfg = cfgs[0]
    frame, ffo_rate, estimate = _estimator(estimator)[1](cfg)
    modes = tuple(c.channel.mode for c in cfgs)
    rngs = (trial_rng(cfg, snr, estimator, t) for snr, t in zip(snrs.tolist(), trial_indices.tolist()))
    stream, _, _ = propagate(frame, cfg.channel, modes, cfg.cfo_true, rngs, scale)
    ffo, ifo, _ = estimate(stream)
    ffo_ref = wrap_offset(cfg.cfo_true, ffo_rate) if cfg.ffo_stage_enabled else 0.0
    total_error = (ifo + ffo) - cfg.cfo_true
    return tuple(
        a.reshape(-1, len(modes)) for a in (np.abs(total_error) < 0.5, ffo - ffo_ref, total_error)
    )


def run_trial(cfg: ExperimentConfig, snr_db: float, estimator: str, trial_index: int) -> TrialRecord:
    """Transmit one frame and run one estimator on it.

    ifo_correct records whether the integer part was resolved: the total
    estimate lies within half a subcarrier of the true offset.  With the
    fractional stage disabled and an integer true offset, this reduces to
    the resolved integer equalling the offset exactly.  A trial whose input
    carries no usable phase has ffo_error and total_error NaN; one whose
    integer stage fails keeps its ffo_error and has total_error NaN.  This
    is the sweep engine's pass over a batch of one.
    """
    correct, ffo_error, total_error = _run_trials(
        (cfg,), estimator, np.array([snr_db], dtype=float), np.array([trial_index]),
        np.array([noise_std(cfg.channel, snr_db)]),
    )
    return TrialRecord(
        snr_db=snr_db,
        estimator=estimator,
        ifo_correct=bool(correct[0, 0]),
        ffo_error=float(ffo_error[0, 0]),
        total_error=float(total_error[0, 0]),
    )


def _chunk_trials(cfg: ExperimentConfig) -> int:
    """Trials per engine pass, so that the pass's largest array fits CHUNK_BYTES.

    Each mode's trial of a shared pass counts as one.
    """
    # The frame stream (complex) and its noise draws (two reals per sample):
    # no estimator holds more than this per trial.
    return max(1, CHUNK_BYTES // (16 * 2 * (cfg.n_fft + cfg.cp_len)))


def _pass_key(cfg: ExperimentConfig) -> str:
    """Equal for configs that differ at most in channel mode.

    A repr, not the config itself: configs compare -0.0 equal to 0.0, but
    an SNR of -0.0 seeds other streams than 0.0.
    """
    return repr(replace(cfg, channel=replace(cfg.channel, mode=MODE_VARYING)))


def _sweep_pass(cfgs: tuple[ExperimentConfig, ...]) -> list[tuple[SweepCell, ...]]:
    """The cells of each config of a shared pass: configs that differ at most in channel mode.

    Each estimator's trials over the whole grid, in (snr, trial) order, run
    as array passes of _chunk_trials trials each, every mode's trial of a
    (snr, trial) pair in the same pass.  Each pass adds its outcomes into
    per-cell tallies, so memory does not grow with the trial count.
    """
    cfg = cfgs[0]
    trials = cfg.trials_per_point
    if trials == 0:
        return [()] * len(cfgs)
    width = len(cfgs)
    grid = np.array(cfg.snr_grid_db, dtype=float)
    scales = np.array([noise_std(cfg.channel, snr_db) for snr_db in cfg.snr_grid_db])
    total = grid.size * trials
    step = max(1, _chunk_trials(cfg) // width)
    stats = {}
    for estimator in cfg.estimators:
        # Per (snr, mode): failures, the sum of squared finite ffo_error and
        # the finite count.  ufunc.at adds in index order, so each sum runs
        # in trial order, as a loop over the trials forms it.
        tally = np.zeros((3, grid.size, width))
        for lo in range(0, total, step):
            cell, t = np.divmod(np.arange(lo, min(lo + step, total)), trials)
            correct, ffo_error, _ = _run_trials(cfgs, estimator, grid[cell], t, scales[cell])
            finite = np.isfinite(ffo_error)
            np.add.at(tally[0], cell, ~correct)
            np.add.at(tally[1], cell, np.where(finite, ffo_error**2, 0.0))
            np.add.at(tally[2], cell, finite)
        stats[estimator] = tally.tolist()
    results = []
    for m, mode_cfg in enumerate(cfgs):
        cells = []
        for k, snr_db in enumerate(cfg.snr_grid_db):
            for estimator in cfg.estimators:
                failures, sq_sum, sq_count = (column[k][m] for column in stats[estimator])
                failures = int(failures)
                cells.append(
                    SweepCell(
                        snr_db=snr_db,
                        estimator=estimator,
                        mode=mode_cfg.channel.mode,
                        trials=trials,
                        failures=failures,
                        failure_prob=failures / trials,
                        ffo_mse=sq_sum / sq_count if sq_count else math.nan,
                        wilson_ci_95=wilson_interval(failures, trials),
                    )
                )
        results.append(tuple(cells))
    return results


def run_sweeps(cfgs: Sequence[ExperimentConfig]) -> tuple[SweepResult, ...]:
    """Run trials_per_point trials for every (snr, estimator) cell of each config and aggregate.

    Returns one SweepResult per config, in input order; each equals
    run_sweep(cfg) bit for bit, and every trial equals run_trial for its
    cell and index.  Configs that differ only in channel mode run in
    shared passes: each (snr, estimator, trial) builds one trial_rng
    generator, draws the prefix the modes share once, and each mode draws
    the rest of its frame from there (channel.propagate).
    """
    cfgs = tuple(cfgs)
    groups: dict[str, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_pass_key(cfg), []).append(i)
    cells: list[tuple[SweepCell, ...]] = [()] * len(cfgs)
    for members in groups.values():
        for i, group_cells in zip(members, _sweep_pass(tuple(cfgs[i] for i in members))):
            cells[i] = group_cells
    return tuple(SweepResult(config=cfg, cells=c) for cfg, c in zip(cfgs, cells))


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run trials_per_point trials for every (snr, estimator) cell and aggregate.

    This is run_sweeps for one config.
    """
    return run_sweeps((cfg,))[0]


def dump_correlations(cfg: ExperimentConfig, snr_db: float, seed: int) -> np.ndarray:
    """One-shot correlation profiles for comb inspection.

    Returns an (n_fft, 3) array with columns (tau, |corr rate-1|, |corr rate-2|).
    """
    spec, frame = _preamble_for(cfg.n_fft, cfg.r1, cfg.r2, cfg.cp_len)
    rx = transmit(frame, cfg.channel, ImpairmentSpec(cfg.cfo_true, snr_db), np.random.default_rng(seed))
    est = estimate_cfo(rx.stream, spec, ffo_stage=cfg.ffo_stage_enabled)
    tau = np.arange(cfg.n_fft, dtype=float)
    return np.column_stack([tau, est.peaks.corr_1, est.peaks.corr_2])
