"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid parameters or configuration (bad sizes, rates, ranges, files)."""


class DegenerateSignalError(RuntimeError):
    """Input signal carries no usable information (e.g. all-zero buffer)."""

