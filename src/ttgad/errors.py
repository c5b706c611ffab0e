"""Exception types shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError and ShapeError -> 2, NumericalError -> 3, any other
TtgadError -> 1.
"""


class TtgadError(Exception):
    """Base class for package errors."""


class ConfigError(TtgadError):
    """Invalid configuration value, unknown config key, or usage error."""


class DataError(TtgadError):
    """Malformed graph data, missing files, or infeasible generation specs."""


class GraphFormatError(DataError):
    """On-disk graph bundle violates the format contract."""


class CheckpointError(DataError):
    """Checkpoint file is missing, truncated, or from an incompatible run."""


class NumericalError(TtgadError):
    """A computation produced non-finite values or failed a numeric check."""


class ShapeError(TtgadError, ValueError):
    """Operands with incompatible shapes were passed to a kernel op."""
