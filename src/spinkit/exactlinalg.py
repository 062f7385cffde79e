"""Small exact linear algebra kit over the rationals.

Matrices are tuples of tuples of ``Fraction`` (rows); vectors are tuples.
Products multiply integer numerators over each operand's common
denominator.  ``rank`` and ``kernel_basis`` eliminate on integer rows kept
primitive (divided by their gcd) after every update, and ``det`` is
Bareiss's fraction-free elimination (Math. Comp. 22, 1968).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatchError

Scalar = Union[int, Fraction]
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def _exact(x: Scalar) -> Fraction:
    if isinstance(x, float):
        raise TypeError("entries must be exact (int or Fraction), not float")
    return Fraction(x)


def vec(entries: Iterable[Scalar]) -> Vector:
    """Entries as Fractions: Fractions pass through, ints convert, floats raise."""
    return tuple(
        x if type(x) is Fraction else Fraction(x) if type(x) is int else _exact(x)
        for x in entries
    )


def mat(rows: Iterable[Iterable[Scalar]]) -> Matrix:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def over_common_denominator(rows: Matrix) -> tuple[int, list[list[int]]]:
    """``(d, numerators)`` with entry (i, j) equal to numerators[i][j] / d."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, as integer dot products over the two operands' common denominators."""
    if a and len(a[0]) != len(b):
        raise DimensionMismatchError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}-row matrix")
    da, rows = over_common_denominator(a)
    db, cols = over_common_denominator(transpose(b))
    d = da * db
    return tuple(tuple(Fraction(sum(map(mul, row, col)), d) for col in cols) for row in rows)


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> Vector:
    """a v, as integer dot products over the common denominators of a and v."""
    if a and len(a[0]) != len(v):
        raise DimensionMismatchError(f"cannot apply {len(a)}x{len(a[0])} matrix to length {len(v)}")
    da, rows = over_common_denominator(a)
    dv, (xs,) = over_common_denominator([v])
    d = da * dv
    return tuple(Fraction(sum(map(mul, row, xs)), d) for row in rows)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        raise DimensionMismatchError("matrices of different shapes")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, s: Scalar) -> Matrix:
    f = Fraction(s)
    return tuple(tuple(x * f for x in row) for row in a)


def is_orthogonal(a: Matrix) -> bool:
    n = len(a)
    return len(a[0]) == n and mat_mul(transpose(a), a) == identity(n)


def is_skew(a: Matrix) -> bool:
    return transpose(a) == tuple(tuple(-x for x in row) for row in a)


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_rref(a: Matrix) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination on primitive integer rows.

    Returns (rows, pivot columns): row r has its pivot at pivots[r] and zeros
    in every other pivot column, so the reduced row echelon form is row r
    divided by its pivot entry.
    """
    rows = [_primitive(row) for row in over_common_denominator(a)[1]]
    nrows = len(rows)
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                g = gcd(top[c], f)
                p, q = top[c] // g, f // g
                rows[i] = _primitive([p * x - q * y for x, y in zip(rows[i], top)])
        pivots.append(c)
        if r + 1 == nrows:
            break
    return rows, pivots


def rank(a: Sequence[Sequence[Scalar]]) -> int:
    """Rank over Q.  Rows of ints are accepted as they are: elimination
    reads only each entry's numerator and denominator, which ints have."""
    return len(_integer_rref(a)[1])


def det(a: Matrix) -> Fraction:
    """Determinant by Bareiss elimination on the integer numerators."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    d, rows = over_common_denominator(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            pivot = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pivot is None:
                return Fraction(0)
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top, p = rows[k], rows[k][k]
        for i in range(k + 1, n):
            row, f = rows[i], rows[i][k]
            rows[i] = [0] * (k + 1) + [(p * row[j] - f * top[j]) // prev for j in range(k + 1, n)]
        prev = p
    return Fraction(sign * rows[-1][-1] if n else 1, d**n)


def kernel_basis(a: Matrix) -> list[Vector]:
    """Basis of the right null space {x : a x = 0}, read off the reduced
    row echelon form: one vector per free column f, with 1 at f."""
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = _integer_rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(rows, pivots):
            v[c] = Fraction(-row[f], row[c])
        basis.append(tuple(v))
    return basis


def intersection_basis(a: Matrix, b: Matrix) -> list[Vector]:
    """Basis of rowspace(a) /\\ rowspace(b) for matrices with independent rows.

    Solves x^T a = y^T b by finding the kernel of [a^T | -b^T].  Because the
    rows of a and of b are independent, (x, y) -> x^T a is injective on that
    kernel, so the images of a kernel basis are already a basis.
    """
    if rank(a) != len(a) or rank(b) != len(b):
        raise ValueError("intersection_basis needs matrices with independent rows")
    if not a or not b:
        return []
    if len(a[0]) != len(b[0]):
        raise DimensionMismatchError("intersection of row spaces of different widths")
    stacked = tuple(ra + tuple(-x for x in rb) for ra, rb in zip(transpose(a), transpose(b)))
    return list(mat_mul(tuple(sol[: len(a)] for sol in kernel_basis(stacked)), a))
