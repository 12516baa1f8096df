"""Monte Carlo experiment engine with deterministic per-trial seeding.

Every trial derives its own random stream from (master_seed, snr cell,
estimator id, trial index), so sweep results are bit-identical regardless of
execution order and individual trials can be replayed in isolation.

A sweep runs each estimator's trials over the whole SNR grid as array passes
over a leading trial axis, in chunks of bounded size: only the random draws
loop per trial, each from its own generator.  The stream depends on neither
the channel mode nor the FFT size, so the modes of a config, and the FFT
sizes of a run_sweeps call (each a copy of its one config), share its passes
and each trial's generator.  run_sweep is run_sweeps at the config's own
size, and run_trial is the same pass over a batch of one.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .channel import (
    MODE_VARYING,
    ChannelProfile,
    check_modes,
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
from .signal import PreambleSpec, _preamble_for


def _integer_offset(cfg: ExperimentConfig, rate: int) -> int:
    """q, the integer offset cfg's integer stage must resolve after a fractional stage at rate.

    That is cfo_true with the fractional stage off, and cfo_true less its
    fractional estimate wrap_offset(cfo_true, rate) with it on.
    """
    if not cfg.ffo_stage_enabled:
        return int(cfg.cfo_true)
    return round(cfg.cfo_true - wrap_offset(cfg.cfo_true, rate))


def _walk_domain(cfg: ExperimentConfig) -> str | None:
    """The rule of the peak walk's range (estimator.resolve_ifo) that cfg breaks, or None.

    The walk recovers q exactly when r2*(L-1) <= N/2 and |q| < N/2 - r2.
    """
    half, delay = cfg.n_fft // 2, cfg.r2 * (cfg.channel.path_count - 1)
    if delay > half:
        return f"r2*(L-1) = {delay} exceeds N/2 = {half}"
    q = _integer_offset(cfg, cfg.r1)
    if not abs(q) < half - cfg.r2:
        return f"integer offset {q} is outside |q| < N/2 - r2 = {half - cfg.r2}"
    return None


def _sca_domain(cfg: ExperimentConfig) -> str | None:
    """The rule of the Schmidl-Cox integer search that cfg breaks, or None.

    B(g) searches the even shifts 2g, g = -N/4..N/4, so q must be even; g =
    +-N/4 tie and argmax keeps -N/2, so q must not be +N/2.
    """
    q = _integer_offset(cfg, ScaPreamble.r1)
    if q % 2:
        return f"integer offset {q} is odd, and B(g) searches even shifts only"
    if q == cfg.n_fft // 2:
        return f"integer offset {q} is +N/2, which B(g) reads as -N/2"
    return None


# Every estimator a sweep can run: name -> (stream id, preamble, receiver, domain).
# The id is a word of each trial's seed key (trial_rng), so it never changes.
# preamble(cfg) is the preamble whose frame the trials transmit and whose r1
# is the rate of the fractional stage; a sweep builds it once per FFT size.
# The receiver, the batch form receiver(streams, pre, ffo_stage), maps
# (T, 2*(N+cp)) streams to a CfoReport.  domain(cfg) returns the rule cfg
# breaks among those under which the receiver recovers every noiseless
# offset, or None: a sweep outside it also counts the estimator's design
# failures, so fig2 labels it.
ESTIMATORS: dict[str, tuple[int, Callable, Callable, Callable]] = {
    "proposed": (0, lambda cfg: _preamble_for(cfg.n_fft, cfg.r1, cfg.r2, cfg.cp_len), estimate_cfo_batch,
                 _walk_domain),
    "sca": (1, lambda cfg: _sca_preamble_for(cfg.master_seed, cfg.n_fft, cfg.cp_len), sca_estimate_batch,
            _sca_domain),
}


def _estimator(name: str) -> tuple[int, Callable, Callable, Callable]:
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
# tallies), so the cap bounds run time: one N=128 config runs about 40-55 us
# a trial per estimator and mode on one core (numpy 2.4.6, one BLAS thread),
# so 2**24 trials take some 11-15 minutes per estimator and mode.  It holds
# 10**6 trials per point on the paper's 11-point grid.
MAX_SWEEP_TRIALS = 2**24


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameterization of one Monte Carlo sweep.

    Its axes are the channel modes, the SNR grid and the estimators; every
    mode sees the same channel profile, and each cell runs a trial or more.
    A config holds only what its sweep can run: its PreambleSpec, whose
    checks cover every rule either estimator's preamble can fail, is built
    (and cached) here, so an N, rate or CP no preamble can have, or a CP the
    channel memory overruns, is rejected at construction.  A config outside
    an estimator's domain (ESTIMATORS) is accepted: its sweep runs, and
    fig2 labels it.
    """

    n_fft: int
    r1: int
    r2: int
    cp_len: int
    channel: ChannelProfile
    cfo_true: float
    snr_grid_db: tuple[float, ...]
    trials_per_point: int
    estimators: tuple[str, ...] = tuple(ESTIMATORS)
    modes: tuple[str, ...] = (MODE_VARYING,)
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
        if self.trials_per_point < 1:
            raise ConfigError(f"trials_per_point must be at least one, got {self.trials_per_point}")
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
        check_modes(self.modes)
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
        _preamble_for(self.n_fft, self.r1, self.r2, self.cp_len)
        self.channel.check_cp(self.cp_len)


@dataclass(frozen=True)
class SweepResult:
    """One sweep's cells as columns in (mode, snr, estimator) order, trials_per_point trials each.

    ci_lo and ci_hi bound each failure_prob's 95% Wilson score interval;
    ffo_mse is NaN in a cell where no ffo_error is finite.
    """

    config: ExperimentConfig
    failures: tuple[int, ...]
    failure_prob: tuple[float, ...]
    ci_lo: tuple[float, ...]
    ci_hi: tuple[float, ...]
    ffo_mse: tuple[float, ...]

    def rows(self) -> Iterator[tuple]:
        """Each cell's ((mode, snr_db, estimator), failures, failure_prob, ci_lo, ci_hi, ffo_mse)."""
        keys = product(self.config.modes, self.config.snr_grid_db, self.config.estimators)
        return zip(keys, self.failures, self.failure_prob, self.ci_lo, self.ci_hi, self.ffo_mse)


def _wilson(p: np.ndarray, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """95% Wilson score bounds of each proportion p of failures in trials trials.

    The lower bound is exactly 0 at no failures and the upper bound exactly 1
    when every trial failed, where the formula leaves a rounding residue.
    """
    z = 1.959963984540054  # the standard normal's 97.5% quantile
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = np.where(p == 0.0, 0.0, np.maximum(0.0, center - half))
    return lo, np.where(p == 1.0, 1.0, np.minimum(1.0, center + half))


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


def _sca_preamble_for(master_seed: int, n_fft: int, cp_len: int) -> ScaPreamble:
    """The Schmidl-Cox preamble of a sweep, drawn from a stream of its master seed that no trial draws from."""
    rng = np.random.Generator(np.random.PCG64(_entropy_words(master_seed, _SCA_PREAMBLE_TAG)))
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
    cfg: ExperimentConfig,
    estimator: str,
    pres: Sequence[PreambleSpec | ScaPreamble],
    snrs: np.ndarray,
    trial_indices: np.ndarray,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a batch of trials as one array pass, for every preamble of pres in each mode of cfg.

    pres holds the estimator's preambles, each from its ESTIMATORS entry at
    one FFT size of cfg (run_sweeps), and every size shares cfg's other
    fields.  Trial i draws from trial_rng(cfg, snrs[i], estimator,
    trial_indices[i]), one generator for every size and mode (see
    channel.propagate); scale[i] is noise_std at snrs[i].  Each preamble's
    frame is transmitted and the entry's receiver runs on its streams.
    Returns (ifo_correct, ffo_error, total_error), each stacked as (sizes,
    trials, modes): the sizes share cfo_true and the preamble's fractional
    rate r1, so each outcome is one array operation over every size.
    ffo_error is the fractional error modulo r1, in (-r1/2, r1/2], so an
    estimate across the branch cut is not off by a whole rate; it is NaN
    for a degenerate trial, and so is total_error.
    """
    receiver = _estimator(estimator)[2]
    rngs = (trial_rng(cfg, snr, estimator, t) for snr, t in zip(snrs.tolist(), trial_indices.tolist()))
    streams, _, _ = propagate([pre.frame for pre in pres], cfg.channel, cfg.modes, cfg.cfo_true, rngs, scale)
    reports = [receiver(stream, pre, cfg.ffo_stage_enabled) for pre, stream in zip(pres, streams)]
    shape = (len(pres), -1, len(cfg.modes))
    ifo = np.stack([report.ifo for report in reports]).reshape(shape)
    ffo = np.stack([report.ffo for report in reports]).reshape(shape)
    rate = pres[0].r1
    err = ffo - (wrap_offset(cfg.cfo_true, rate) if cfg.ffo_stage_enabled else 0.0)
    # Both terms lie in (-rate/2, rate/2]: np.where moves only the errors past it, by one rate.
    err = np.where(err > rate / 2, err - rate, np.where(err <= -rate / 2, err + rate, err))
    total_error = (ifo + ffo) - cfg.cfo_true
    return np.abs(total_error) < 0.5, err, total_error


def run_trial(
    cfg: ExperimentConfig, snr_db: float, estimator: str, trial_index: int
) -> tuple[tuple[bool, float, float], ...]:
    """Transmit one frame in each channel mode of cfg and run one estimator on each.

    Returns one (ifo_correct, ffo_error, total_error) tuple per mode, in
    cfg.modes order.  ifo_correct records whether the integer part was
    resolved: the total estimate lies within half a subcarrier of the true
    offset.  With the fractional stage disabled and an integer true offset,
    this reduces to the resolved integer equalling the offset exactly.
    ffo_error is the fractional error modulo the preamble's rate r1, in
    (-r1/2, r1/2].  A trial whose input carries no usable phase has
    ffo_error and total_error NaN.  This is the sweep engine's pass over a
    batch of one.
    """
    outcomes = _run_trials(
        cfg, estimator, [_estimator(estimator)[1](cfg)], np.array([snr_db], dtype=float),
        np.array([trial_index]), np.array([noise_std(cfg.channel, snr_db)]),
    )
    return tuple(zip(*(a[0, 0].tolist() for a in outcomes)))


def _chunk_trials(cfgs: Sequence[ExperimentConfig]) -> int:
    """Trials per engine pass over cfgs, so that the frame streams of a pass fit CHUNK_BYTES.

    Each mode's trial of a shared pass counts as one.  A pass holds one
    stream per config: with one config, it is the pass's largest array.
    """
    # A frame stream is complex; the one noise draw (two reals per sample of
    # the longest frame) is no larger than the streams, and no estimator
    # holds more than its stream per trial.
    return max(1, CHUNK_BYTES // sum(16 * 2 * (cfg.n_fft + cfg.cp_len) for cfg in cfgs))


def run_sweeps(cfg: ExperimentConfig, n_ffts: Iterable[int]) -> tuple[SweepResult, ...]:
    """Sweep cfg at each FFT size of n_ffts in shared passes; return one SweepResult per size.

    The result for size n is that of replace(cfg, n_fft=n), or of cfg at its
    own size, in the order of n_ffts; every such config is built, and so
    validated, before a trial runs.  Each result holds trials_per_point
    trials for every (mode, snr, estimator) cell of its config, in that
    order.  Each estimator's preamble is built once per size, before its
    first pass, and every pass reads it.  Its trials over the whole grid, in
    (snr, trial) order, run as array passes of _chunk_trials trials each,
    every size's and every mode's trial of a (snr, trial) pair in the same
    pass.  The stream key (trial_rng) holds no n_fft, so each (snr,
    estimator, trial) builds one trial_rng generator, and channel.propagate
    draws its frame once for every size and mode: the noise is drawn for the
    longest block, each N reads its prefix, and so each size gets the draws
    it would make alone.  A size's cells do not depend on the other sizes,
    nor a mode's on the other modes, and every trial equals run_trial for
    its cell and index.  Each pass returns its outcomes stacked over the
    sizes and adds them into per-cell tallies with one np.add.at, so memory
    does not grow with the trial count; failure_prob and its Wilson bounds
    are then computed in one pass over the (sizes, cells) table, which is
    split into one SweepResult per size.
    """
    cfgs = tuple(cfg if n_fft == cfg.n_fft else replace(cfg, n_fft=n_fft) for n_fft in n_ffts)
    if not cfgs:
        return ()
    trials = cfg.trials_per_point
    width = len(cfg.modes)
    grid = np.array(cfg.snr_grid_db, dtype=float)
    scales = np.array([noise_std(cfg.channel, snr_db) for snr_db in cfg.snr_grid_db])
    total = grid.size * trials
    step = max(1, _chunk_trials(cfgs) // width)
    # Per (config, estimator, snr, mode): failures, the sum of squared finite
    # ffo_error and the finite count, added for each pass as one stacked
    # (config, stat, trial, mode) block.  ufunc.at adds in index order, so
    # each sum runs in trial order, as a loop over the trials forms it.
    tally = np.zeros((len(cfgs), len(cfg.estimators), 3, grid.size, width))
    for e, estimator in enumerate(cfg.estimators):
        pres = [_estimator(estimator)[1](c) for c in cfgs]
        for lo in range(0, total, step):
            cell, t = np.divmod(np.arange(lo, min(lo + step, total)), trials)
            correct, ffo_error, _ = _run_trials(cfg, estimator, pres, grid[cell], t, scales[cell])
            finite = np.isfinite(ffo_error)
            block = np.stack([~correct, np.where(finite, ffo_error**2, 0.0), finite], axis=1)
            np.add.at(tally[:, e], (slice(None), slice(None), cell), block)
    # Each column as a (config, cell) table, cells in (mode, snr, estimator) order.
    failures, sq_sum, sq_count = tally.transpose(2, 0, 4, 3, 1).reshape(3, len(cfgs), -1)
    failure_prob = failures / trials
    ci_lo, ci_hi = _wilson(failure_prob, trials)
    # math.nan, one object, where no ffo_error is finite: equal sweeps compare equal.
    ffo_mse = [
        tuple(s / n if n else math.nan for s, n in zip(sums, counts))
        for sums, counts in zip(sq_sum.tolist(), sq_count.tolist())
    ]
    columns = (failures.astype(int), failure_prob, ci_lo, ci_hi)
    return tuple(
        SweepResult(c, *map(tuple, values), mse)
        for c, *values, mse in zip(cfgs, *(column.tolist() for column in columns), ffo_mse)
    )


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run trials_per_point trials for every (mode, snr, estimator) cell and aggregate.

    This is run_sweeps(cfg, (cfg.n_fft,))[0], the engine's pass for one FFT size.
    """
    return run_sweeps(cfg, (cfg.n_fft,))[0]


def dump_correlations(cfg: ExperimentConfig) -> np.ndarray:
    """One-shot correlation profiles for comb inspection.

    The frame goes through the channel in the config's first mode at its
    first SNR, with a generator seeded by its master seed.
    Returns an (n_fft, 3) array with columns (tau, |corr rate-1|, |corr rate-2|).
    """
    spec = _preamble_for(cfg.n_fft, cfg.r1, cfg.r2, cfg.cp_len)
    rng = np.random.default_rng(cfg.master_seed)
    rx = transmit(spec.frame, cfg.channel, cfg.cfo_true, cfg.snr_grid_db[0], rng, cfg.modes[0])
    est = estimate_cfo(rx.stream, spec, ffo_stage=cfg.ffo_stage_enabled)
    tau = np.arange(cfg.n_fft, dtype=float)
    return np.column_stack([tau, *est.profiles])
