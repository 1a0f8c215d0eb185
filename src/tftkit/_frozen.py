"""Base class for the package's small immutable value classes.

``dataclasses`` would write these methods, but importing it loads
inspect, ast, dis and tokenize: about 20 ms of every CLI start-up.
"""


class Frozen:
    """Immutable value class over the fields named in ``__slots__``.

    A subclass lists its fields in ``__slots__``; its constructor takes
    the class's inputs (its signature rejects a bad call), derives the
    other fields and passes every field value to ``Frozen.__init__`` in
    slot order.  Afterwards assignment and deletion raise
    AttributeError.  Equality, hashing, the repr and pickling go by the
    field values in slot order, as they do for a frozen dataclass;
    unpickling restores the fields without rerunning the derivation.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        Frozen.__init__(self, *state)
