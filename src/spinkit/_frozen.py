"""The base of the package's immutable value classes.

A value class names its fields in ``_fields``, in declaration order, and
lists them in ``__slots__``.  Its one ``__init__`` validates and stores
each field with ``object.__setattr__``.  Instances compare and hash by
``_key()``, the tuple of their fields, print as ``Name(field=value, ...)``
and refuse assignment and deletion.

The standard library's frozen record classes would do the same, but their
module imports ``inspect``, ``ast`` and ``dis``, a large share of the start-up
of every short ``spinkit`` process.
"""


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
