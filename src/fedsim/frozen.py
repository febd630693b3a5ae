"""The shared base of fedsim's immutable records, and the value checks that
the records and the config both call.

Each record writes its ``__init__`` out in source, so its methods load from
the bytecode cache; a ``@dataclass`` would generate them with ``exec`` on
every import. A frozen record stores its fields once, through
``self.__dict__``, and keeps that instance ``__dict__``, so pickling and
copying work as for any plain object.

``_as_int`` and ``_as_float`` take the value and the path to name in an
error: a config's key path such as ``config.runs``, or a record's field
name, as in ``rounds: must be >= 1, got 0``. Each raises ``ConfigError``, or
returns a Python ``int`` or ``float``.
"""

import math
import numbers


class ConfigError(ValueError):
    """A config document or record field failed to validate; names its path."""


class Frozen:
    """Base whose instances refuse attribute assignment and deletion."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


def _as_int(value, path: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
    return value


def _as_float(value, path: str, minimum=None, maximum=None, strict_min=False) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{path}: must be finite") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    if minimum is not None:
        if strict_min and value <= minimum:
            raise ConfigError(f"{path}: must be > {minimum}, got {value}")
        if not strict_min and value < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
    return value
