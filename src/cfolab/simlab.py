"""Monte Carlo experiment engine with deterministic per-trial seeding.

Every trial derives its own random stream from (master_seed, snr cell,
estimator id, trial index), so sweep results are bit-identical regardless of
execution order and individual trials can be replayed in isolation.

A sweep runs each estimator's trials over the whole SNR grid as array passes
over a leading trial axis, in chunks of bounded size: only the random draws
loop per trial, each from its own generator.  run_trial is the same pass over
a batch of one.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    ChannelProfile,
    ImpairmentSpec,
    complex_taps,
    draw_frame,
    noise_std,
    noise_variance,
    propagate,
    tap_std,
    transmit,
)
from .errors import ConfigError
from .estimator import estimate_cfo, estimate_cfo_batch, wrap_offset

# sca_estimate, the one-frame form of sca_estimate_batch, stays bound here
# beside transmit and estimate_cfo: bench/spans.py traces these names.
from .sca import ScaPreamble, sca_build_preamble, sca_estimate, sca_estimate_batch  # noqa: F401
from .signal import CazacParams, PreambleFrame, PreambleSpec, build_preamble

ESTIMATOR_PROPOSED = "proposed"
ESTIMATOR_SCA = "sca"
_ESTIMATOR_IDS = {ESTIMATOR_PROPOSED: 0, ESTIMATOR_SCA: 1}

# Stream tag separating the SCA preamble draw from trial streams.
_SCA_PREAMBLE_TAG = 0x5CA_9EA3

# Memory bound of the sweep engine: trials run in chunks sized so that the
# largest array of a chunk stays under this many bytes.
CHUNK_BYTES = 4 << 20


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
    estimators: tuple[str, ...] = (ESTIMATOR_PROPOSED, ESTIMATOR_SCA)
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
        for est in self.estimators:
            if est not in _ESTIMATOR_IDS:
                raise ConfigError(f"unknown estimator {est!r}")
        if not self.ffo_stage_enabled and self.cfo_true != int(self.cfo_true):
            raise ConfigError(
                "ffo_stage_enabled=False is only meaningful for integer cfo_true"
            )
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        for snr_db in self.snr_grid_db:
            # +inf is the noiseless channel; any other SNR needs a finite,
            # nonzero noise variance.  NaN, -inf and SNRs whose linear power
            # overflows or underflows have none.
            if snr_db == math.inf:
                continue
            try:
                variance = noise_variance(self.channel, snr_db)
            except (OverflowError, ZeroDivisionError):
                variance = math.nan
            if not 0.0 < variance < math.inf:
                raise ConfigError(f"SNR {snr_db} dB is outside what the channel can model")

    def preamble_spec(self) -> PreambleSpec:
        return PreambleSpec(
            params_1=CazacParams(self.n_fft, self.r1),
            params_2=CazacParams(self.n_fft, self.r2),
            cp_len=self.cp_len,
        )


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


def wilson_interval(failures: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
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
            _entropy_words(cfg.master_seed, _snr_key(snr_db), _ESTIMATOR_IDS[estimator], trial_index)
        )
    )


def _impairment(cfg: ExperimentConfig, snr_db: float) -> ImpairmentSpec:
    return ImpairmentSpec(cfo=cfg.cfo_true, snr_db=snr_db, noise_enabled=math.isfinite(snr_db))


def run_single_frame(
    cfg: ExperimentConfig, snr_db: float, rng: np.random.Generator
):
    """Transmit one frame and estimate it; returns (received frame, estimate)."""
    spec, frame = _preamble_for(cfg.n_fft, cfg.r1, cfg.r2, cfg.cp_len)
    rx = transmit(frame, cfg.channel, _impairment(cfg, snr_db), rng)
    est = estimate_cfo(rx, spec, ffo_stage=cfg.ffo_stage_enabled)
    return rx, est


def _run_trials(
    cfg: ExperimentConfig,
    estimator: str,
    snrs: np.ndarray,
    trial_indices: np.ndarray,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a batch of trials as one array pass.

    Trial i draws from trial_rng(cfg, snrs[i], estimator, trial_indices[i]);
    scale[i] is noise_std at snrs[i].  Returns (ifo_correct, ffo_error,
    total_error) per trial.  ffo_error is NaN for a degenerate trial;
    total_error is NaN for a degenerate trial and for one whose integer
    stage failed.
    """
    if estimator == ESTIMATOR_PROPOSED:
        spec, frame = _preamble_for(cfg.n_fft, cfg.r1, cfg.r2, cfg.cp_len)
        ffo_rate = cfg.r1
    else:
        pre = _sca_preamble_for(cfg.master_seed, cfg.n_fft, cfg.cp_len)
        frame = pre.frame
        ffo_rate = 2.0
    profile = cfg.channel
    count = len(snrs)
    tap_normals = np.empty((count, 2, 2 * profile.path_count))
    phase_0 = np.empty(count)
    # Zeros, so rows drawn without noise add exact zeros in propagate.
    white = np.zeros((count, 4 * frame.block_len))
    noisy = (scale != 0).tolist()
    for i, (snr, t) in enumerate(zip(snrs.tolist(), trial_indices.tolist())):
        rng = trial_rng(cfg, snr, estimator, t)
        phase_0[i] = draw_frame(profile, rng, tap_normals[i], white[i] if noisy[i] else None)

    taps = complex_taps(tap_std(profile), tap_normals)
    stream = propagate(frame, taps, phase_0, cfg.cfo_true, white, scale)
    start = frame.cp_len
    symbols = stream.reshape(count, 2, frame.block_len)[:, :, start : start + cfg.n_fft]
    if estimator == ESTIMATOR_PROPOSED:
        ffo, ifo, _ = estimate_cfo_batch(symbols, spec, ffo_stage=cfg.ffo_stage_enabled)
    else:
        ffo, ifo, _ = sca_estimate_batch(symbols, pre, ffo_stage=cfg.ffo_stage_enabled)
    ffo_ref = wrap_offset(cfg.cfo_true, ffo_rate) if cfg.ffo_stage_enabled else 0.0
    total_error = (ifo + ffo) - cfg.cfo_true
    return np.abs(total_error) < 0.5, ffo - ffo_ref, total_error


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
    if estimator not in _ESTIMATOR_IDS:
        raise ConfigError(f"unknown estimator {estimator!r}")
    correct, ffo_error, total_error = _run_trials(
        cfg, estimator, np.array([snr_db], dtype=float), np.array([trial_index]),
        np.array([noise_std(cfg.channel, snr_db)]),
    )
    return TrialRecord(
        snr_db=snr_db,
        estimator=estimator,
        ifo_correct=bool(correct[0]),
        ffo_error=float(ffo_error[0]),
        total_error=float(total_error[0]),
    )


def _chunk_trials(cfg: ExperimentConfig) -> int:
    """Trials per engine pass, so that the pass's largest array fits CHUNK_BYTES."""
    # The frame stream (complex) and its noise draws (two reals per sample):
    # no estimator holds more than this per trial.
    return max(1, CHUNK_BYTES // (16 * 2 * (cfg.n_fft + cfg.cp_len)))


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run trials_per_point trials for every (snr, estimator) cell and aggregate.

    Each estimator's trials over the whole grid, in (snr, trial) order, run
    as array passes of _chunk_trials trials each; every trial equals
    run_trial for its cell and index.  Beyond one pass's arrays, memory
    grows only with the outcomes kept per trial, a few tens of bytes each.
    """
    trials = cfg.trials_per_point
    if trials == 0:
        return SweepResult(config=cfg, cells=())
    grid = np.array(cfg.snr_grid_db, dtype=float)
    scales = np.array([noise_std(cfg.channel, snr_db) for snr_db in cfg.snr_grid_db])
    total = grid.size * trials
    step = _chunk_trials(cfg)
    stats = {}
    for estimator in cfg.estimators:
        correct = np.empty(total, dtype=bool)
        ffo_error = np.empty(total)
        for lo in range(0, total, step):
            cell, t = np.divmod(np.arange(lo, min(lo + step, total)), trials)
            correct[lo : lo + step], ffo_error[lo : lo + step], _ = _run_trials(
                cfg, estimator, grid[cell], t, scales[cell]
            )
        correct = correct.reshape(grid.size, trials)
        ffo_error = ffo_error.reshape(grid.size, trials)
        finite = np.isfinite(ffo_error)
        stats[estimator] = (
            np.count_nonzero(~correct, axis=1).tolist(),
            # A running sum in trial order, as a loop over the trials forms it.
            np.cumsum(np.where(finite, ffo_error**2, 0.0), axis=1)[:, -1].tolist(),
            np.count_nonzero(finite, axis=1).tolist(),
        )
    cells = []
    for k, snr_db in enumerate(cfg.snr_grid_db):
        for estimator in cfg.estimators:
            failures, sq_sum, sq_count = (column[k] for column in stats[estimator])
            cells.append(
                SweepCell(
                    snr_db=snr_db,
                    estimator=estimator,
                    mode=cfg.channel.mode,
                    trials=trials,
                    failures=failures,
                    failure_prob=failures / trials,
                    ffo_mse=sq_sum / sq_count if sq_count else math.nan,
                    wilson_ci_95=wilson_interval(failures, trials),
                )
            )
    return SweepResult(config=cfg, cells=tuple(cells))


def dump_correlations(cfg: ExperimentConfig, snr_db: float, seed: int) -> np.ndarray:
    """One-shot correlation profiles for comb inspection.

    Returns an (n_fft, 3) array with columns (tau, |corr rate-1|, |corr rate-2|).
    """
    _, est = run_single_frame(cfg, snr_db, np.random.default_rng(seed))
    tau = np.arange(cfg.n_fft, dtype=float)
    return np.column_stack([tau, est.peaks.corr_1, est.peaks.corr_2])
