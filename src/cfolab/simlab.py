"""Monte Carlo experiment engine with deterministic per-trial seeding.

Every trial derives its own random stream from (master_seed, snr cell,
estimator id, trial index), so sweep results are bit-identical regardless of
execution order and individual trials can be replayed in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelProfile, ImpairmentSpec, transmit
from .errors import ConfigError, DegenerateSignalError
from .estimator import estimate_cfo, wrap_offset
from .sca import ScaPreamble, sca_build_preamble, sca_estimate
from .signal import CazacParams, PreambleFrame, PreambleSpec, build_preamble

ESTIMATOR_PROPOSED = "proposed"
ESTIMATOR_SCA = "sca"
_ESTIMATOR_IDS = {ESTIMATOR_PROPOSED: 0, ESTIMATOR_SCA: 1}

# Stream tag separating the SCA preamble draw from trial streams.
_SCA_PREAMBLE_TAG = 0x5CA_9EA3


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


@lru_cache(maxsize=8)
def _sca_preamble_for(master_seed: int, n_fft: int, cp_len: int) -> ScaPreamble:
    rng = np.random.default_rng([master_seed, _SCA_PREAMBLE_TAG])
    return sca_build_preamble(n_fft, cp_len, rng)


def _snr_key(snr_db: float) -> int:
    """Stable nonnegative integer key for an SNR value (works for +inf too)."""
    return int(np.float64(snr_db).view(np.uint64))


def trial_rng(cfg: ExperimentConfig, snr_db: float, estimator: str, trial_index: int) -> np.random.Generator:
    """Derive the deterministic random stream for one trial cell."""
    return np.random.default_rng(
        [cfg.master_seed, _snr_key(snr_db), _ESTIMATOR_IDS[estimator], trial_index]
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


def run_trial(cfg: ExperimentConfig, snr_db: float, estimator: str, trial_index: int) -> TrialRecord:
    """Transmit one frame and run one estimator on it.

    ifo_correct records whether the integer part was resolved: the total
    estimate lies within half a subcarrier of the true offset.  With the
    fractional stage disabled and an integer true offset, this reduces to
    the resolved integer equalling the offset exactly.
    """
    if estimator not in _ESTIMATOR_IDS:
        raise ConfigError(f"unknown estimator {estimator!r}")
    rng = trial_rng(cfg, snr_db, estimator, trial_index)
    try:
        if estimator == ESTIMATOR_PROPOSED:
            _, est = run_single_frame(cfg, snr_db, rng)
            ffo_ref = wrap_offset(cfg.cfo_true, cfg.r1) if cfg.ffo_stage_enabled else 0.0
        else:
            pre = _sca_preamble_for(cfg.master_seed, cfg.n_fft, cfg.cp_len)
            rx = transmit(pre.frame, cfg.channel, _impairment(cfg, snr_db), rng)
            est = sca_estimate(rx, pre, ffo_stage=cfg.ffo_stage_enabled)
            ffo_ref = wrap_offset(cfg.cfo_true, 2.0) if cfg.ffo_stage_enabled else 0.0
    except DegenerateSignalError:
        return TrialRecord(snr_db, estimator, False, math.nan, math.nan)
    if est.failed:
        return TrialRecord(snr_db, estimator, False, est.ffo - ffo_ref, math.nan)
    return TrialRecord(
        snr_db=snr_db,
        estimator=estimator,
        ifo_correct=abs(est.total - cfg.cfo_true) < 0.5,
        ffo_error=est.ffo - ffo_ref,
        total_error=est.total - cfg.cfo_true,
    )


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run trials_per_point trials for every (snr, estimator) cell and aggregate."""
    cells: list[SweepCell] = []
    if cfg.trials_per_point > 0:
        for snr_db in cfg.snr_grid_db:
            for estimator in cfg.estimators:
                failures = 0
                sq_sum = 0.0
                sq_count = 0
                for t in range(cfg.trials_per_point):
                    rec = run_trial(cfg, snr_db, estimator, t)
                    if not rec.ifo_correct:
                        failures += 1
                    if math.isfinite(rec.ffo_error):
                        sq_sum += rec.ffo_error * rec.ffo_error
                        sq_count += 1
                cells.append(
                    SweepCell(
                        snr_db=snr_db,
                        estimator=estimator,
                        mode=cfg.channel.mode,
                        trials=cfg.trials_per_point,
                        failures=failures,
                        failure_prob=failures / cfg.trials_per_point,
                        ffo_mse=sq_sum / sq_count if sq_count else math.nan,
                        wilson_ci_95=wilson_interval(failures, cfg.trials_per_point),
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
