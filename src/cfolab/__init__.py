"""Carrier frequency offset estimation lab over dual chirp-rate preambles."""

__version__ = "0.1.0"

from .channel import (
    ChannelProfile,
    ImpairmentSpec,
    ReceivedFrame,
    draw_channel,
    transmit,
)
from .errors import ConfigError, DegenerateSignalError
from .estimator import (
    CfoEstimate,
    CfoReport,
    compensate,
    estimate_cfo,
    estimate_ffo,
    freq_correlate,
    resolve_ifo,
    time_autocorr,
    wrap_offset,
)
from .sca import ScaPreamble, sca_build_preamble, sca_estimate
from .signal import (
    CazacParams,
    PreambleFrame,
    PreambleSpec,
    build_preamble,
    cazac_generate,
    dft,
    idft,
)
from .simlab import (
    ESTIMATORS,
    ExperimentConfig,
    SweepResult,
    dump_correlations,
    run_sweep,
    run_trial,
)

__all__ = [
    "CazacParams",
    "CfoEstimate",
    "CfoReport",
    "ChannelProfile",
    "ConfigError",
    "DegenerateSignalError",
    "ESTIMATORS",
    "ExperimentConfig",
    "ImpairmentSpec",
    "PreambleFrame",
    "PreambleSpec",
    "ReceivedFrame",
    "ScaPreamble",
    "SweepResult",
    "build_preamble",
    "cazac_generate",
    "compensate",
    "dft",
    "draw_channel",
    "dump_correlations",
    "estimate_cfo",
    "estimate_ffo",
    "freq_correlate",
    "idft",
    "resolve_ifo",
    "run_sweep",
    "run_trial",
    "sca_build_preamble",
    "sca_estimate",
    "time_autocorr",
    "transmit",
    "wrap_offset",
]
