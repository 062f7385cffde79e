"""Exception types shared across the package, and the exact kernels' shape guard."""


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
