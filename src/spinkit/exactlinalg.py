"""Small exact linear algebra kit over the rationals.

Matrices are tuples of tuples of ``Fraction`` (rows); vectors are tuples.
Matrix products multiply integer numerators over each operand's common
denominator.  Everything else is textbook Gaussian elimination kept exact,
which is fast enough for the 8x8 .. 256x256 problems in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vec(entries: Iterable[Scalar]) -> Vector:
    return tuple(Fraction(x) for x in entries)


def mat(rows: Iterable[Iterable[Scalar]]) -> Matrix:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def _over_common_denominator(rows: Matrix) -> tuple[int, list[list[int]]]:
    """``(d, numerators)`` with entry (i, j) equal to numerators[i][j] / d."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, as integer dot products over the two operands' common denominators."""
    da, rows = _over_common_denominator(a)
    db, cols = _over_common_denominator(transpose(b))
    d = da * db
    return tuple(tuple(Fraction(sum(map(mul, row, col)), d) for col in cols) for row in rows)


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> Vector:
    return tuple(sum(x * Fraction(y) for x, y in zip(row, v)) for row in a)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, s: Scalar) -> Matrix:
    f = Fraction(s)
    return tuple(tuple(x * f for x in row) for row in a)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(u, v)), Fraction(0))


def is_orthogonal(a: Matrix) -> bool:
    n = len(a)
    return len(a[0]) == n and mat_mul(transpose(a), a) == identity(n)


def is_skew(a: Matrix) -> bool:
    return transpose(a) == tuple(tuple(-x for x in row) for row in a)


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(a: Matrix) -> int:
    if not a:
        return 0
    _, pivots = _rref([list(row) for row in a])
    return len(pivots)


def det(a: Matrix) -> Fraction:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    rows = [list(row) for row in a]
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = -result
        result *= rows[c][c]
        inv = rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def kernel_basis(a: Matrix) -> list[Vector]:
    """Basis of the right null space {x : a x = 0}."""
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = _rref([list(row) for row in a])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
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
    at = transpose(a)
    bt = transpose(b)
    stacked = tuple(ra + tuple(-x for x in rb) for ra, rb in zip(at, bt))
    return [
        tuple(
            sum((c * a[i][j] for i, c in enumerate(sol[: len(a)])), Fraction(0))
            for j in range(len(a[0]))
        )
        for sol in kernel_basis(stacked)
    ]


def rational_square_root(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if not a square."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
