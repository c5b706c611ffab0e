"""Exception types shared across the package, and the field type check of
its config dataclasses.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError and ShapeError -> 2, NumericalError -> 3, OutOfMemoryError -> 4,
any other TtgadError -> 1.
"""

import math
import numbers
from dataclasses import fields


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


class OutOfMemoryError(TtgadError):
    """A command ran out of the memory its process may use."""


class ShapeError(TtgadError, ValueError):
    """Operands with incompatible shapes were passed to a kernel op."""


_ABSTRACT_TYPES = {int: numbers.Integral, float: numbers.Real}


def _check_field_types(obj, error=ConfigError):
    """Raise ``error`` unless each dataclass field holds its annotated type.

    Int fields take any integer and float fields any finite real number, of
    any numeric type, but neither takes a bool; a union field takes any of
    its members.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        kinds = getattr(f.type, "__args__", (f.type,))
        if isinstance(value, bool):
            ok = bool in kinds
        else:
            ok = any(isinstance(value, _ABSTRACT_TYPES.get(k, k)) for k in kinds)
        if not ok:
            kind = getattr(f.type, "__name__", str(f.type))
            raise error(f"{f.name} must be of type {kind}, got {value!r}")
        if float in kinds and isinstance(value, numbers.Real):
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int past float range
                finite = False
            if not finite:
                raise error(f"{f.name} must be finite, got {value!r}")
