"""What every layer of the package shares: its exception types, the exact
kernels' shape guard ``row_width``, the class guard ``require`` and
``Frozen``, the base of its immutable value classes.

They live in one module because each layer loads this one anyway, so a
``spinkit`` process pays for one import, not one per shared piece.

A ``Frozen`` value class names its fields in ``_fields``, in declaration
order, and lists them in ``__slots__``.  Its one ``__init__`` validates and
stores each field with ``object.__setattr__``.  Instances compare and hash
by ``_key()``, the tuple of their fields, print as ``Name(field=value, ...)``
and refuse assignment and deletion.

The standard library's frozen record classes would do the same, but their
module imports ``inspect``, ``ast`` and ``dis``, a large share of the start-up
of every short ``spinkit`` process.
"""


class SpinkitError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(SpinkitError, ValueError):
    """Operands live in different algebras or have incompatible shapes,
    or a matrix has ragged rows."""


def row_width(rows) -> int | None:
    """The common length of ``rows``, None when there are none; rows of
    different lengths raise ``DimensionMismatchError("ragged matrix")``."""
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise DimensionMismatchError("ragged matrix")
    return widths.pop() if widths else None


def require(value, cls: type, what: str) -> None:
    """Raise TypeError naming ``value`` unless it is an instance of cls."""
    if not isinstance(value, cls):
        raise TypeError(f"{what} {value!r} must be a {cls.__name__}, not {type(value).__name__}")


class UnsupportedDimensionError(SpinkitError, ValueError):
    """Requested generator count outside the supported range."""


class InvalidSpinElementError(SpinkitError, ValueError):
    """Element fails the spin-group invariants (even, unit norm, grade-preserving)."""


class LiftError(SpinkitError, ValueError):
    """Rotation cannot be lifted as requested (orientation or rationality)."""


class ChiralityError(SpinkitError, ValueError):
    """Operand does not respect the chiral splitting it claims."""


class EmbeddingDomainError(SpinkitError, ValueError):
    """Element lies outside the even Cl(0,7) copy inside Cl(0,8)."""


class InternalCheckError(SpinkitError, AssertionError):
    """An internal consistency check failed; indicates a bug, not bad input.

    Only ``gammarep.iota_plus`` raises it, and the ``verify reps`` checks
    that call it report it as a FAIL line."""


class ResidueError(SpinkitError, ValueError):
    """Cochain inputs are inconsistent with a relative cochain on the product pair."""


class ComplexValidationError(SpinkitError, ValueError):
    """Cell complex data violates the boundary or subcomplex axioms."""


class TorsorError(SpinkitError, ValueError):
    """Difference table or action table fails the torsor axioms."""


class CensusDataError(SpinkitError, ValueError):
    """Characteristic-class record violates a validation rule or precondition."""


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
