"""The shared base of fedsim's immutable record classes, and the check of their counts.

Each record writes its ``__init__`` out in source, so its methods load from
the bytecode cache; a ``@dataclass`` would generate them with ``exec`` on
every import. A frozen record stores its fields once, through
``self.__dict__``, and keeps that instance ``__dict__``, so pickling and
copying work as for any plain object.
"""

import numbers


class Frozen:
    """Base whose instances refuse attribute assignment and deletion."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


def check_count(name: str, value) -> None:
    """Require a record's count field to be an integer >= 1.

    Python and numpy integers pass; a bool or a float is rejected here, where
    the record is built, not deep inside a run that uses it as a size.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
