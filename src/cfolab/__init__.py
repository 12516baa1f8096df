"""Carrier frequency offset estimation lab over dual chirp-rate preambles.

Each public name is imported from its module when it is first read (PEP 562),
so importing cfolab, or one of its modules, loads only the modules in use.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    **dict.fromkeys(("ChannelProfile", "ReceivedFrame", "transmit"), "channel"),
    **dict.fromkeys(("ConfigError", "DegenerateSignalError"), "errors"),
    **dict.fromkeys(("CfoEstimate", "CfoReport", "compensate", "estimate_cfo", "estimate_ffo",
                     "freq_correlate", "resolve_ifo", "time_autocorr", "wrap_offset"), "estimator"),
    **dict.fromkeys(("ScaPreamble", "sca_build_preamble", "sca_estimate"), "sca"),
    **dict.fromkeys(("PreambleFrame", "PreambleSpec", "cazac_generate", "dft", "idft"), "signal"),
    **dict.fromkeys(("ESTIMATORS", "ExperimentConfig", "SweepResult", "dump_correlations", "run_sweep",
                     "run_trial"), "simlab"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
