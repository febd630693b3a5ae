"""The shared base of fedsim's immutable record classes.

Each record writes its ``__init__`` out in source, so its methods load from
the bytecode cache; a ``@dataclass`` would generate them with ``exec`` on
every import. A frozen record stores its fields once, through
``self.__dict__``, and keeps that instance ``__dict__``, so pickling and
copying work as for any plain object.
"""


class Frozen:
    """Base whose instances refuse attribute assignment and deletion."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
