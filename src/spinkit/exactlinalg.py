"""Small exact linear algebra kit over the rationals.

A rational matrix is one pair ``(d, rows)`` of a positive int d and rows of
ints, entry (i, j) being rows[i][j] / d; a vector is ``(d, entries)``.
:func:`exact` builds the pair in lowest terms (gcd of d and every entry 1),
so ``==`` on pairs is equality of values.

The kernels run on integer rows.  The product of ``(da, a)`` and
``(db, b)`` is ``exact(da * db, mat_mul(a, b))``; a rank or a kernel
ignores row scaling, so ``rank`` and ``kernel_basis`` read the rows alone
and eliminate on them kept primitive (divided by their gcd) after every
update; ``rank`` eliminates a tall matrix's transpose, its short side.
``det`` is Bareiss's fraction-free elimination (Math. Comp. 22, 1968).

Every kernel reads its rows through one guard, ``errors.row_width``: ragged
rows raise ``DimensionMismatchError``, nothing is truncated, and a matrix
with no rows has no width.  :func:`exact` takes entries of type int or Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, row_width

Rows = tuple[tuple[int, ...], ...]
Exact = tuple[int, Rows]


def exact(d: int, rows: Iterable[Iterable]) -> Exact:
    """The rational matrix rows / d as ``(d, integer rows)`` in lowest terms.

    Entries must be of type int or Fraction; anything else, subclasses such as
    bool included, raises TypeError naming its type rather than being converted on a guess.
    """
    if type(d) is not int or d < 1:
        raise ValueError(f"denominator must be a positive int, got {d!r}")
    rows = [tuple(r) for r in rows]
    row_width(rows)
    types = set(map(type, chain.from_iterable(rows)))
    if not types <= {int}:
        if not types <= {int, Fraction}:
            bad = next(x for x in chain.from_iterable(rows) if type(x) not in (int, Fraction))
            raise TypeError(f"entries must be exact (int or Fraction), not {type(bad).__name__}")
        den = lcm(*[x.denominator for r in rows for x in r])
        rows = [tuple([x.numerator * (den // x.denominator) for x in r]) for r in rows]
        d *= den
    g = gcd(d, *chain.from_iterable(rows))
    if g > 1:
        return d // g, tuple(tuple(x // g for x in r) for r in rows)
    return d, tuple(rows)


def identity(n: int) -> Rows:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(a: Sequence[Sequence[int]]) -> Rows:
    row_width(a)
    return tuple(zip(*a))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Rows:
    """a b for integer rows; an a with no rows gives no rows."""
    width, cols = row_width(a), transpose(b)
    if width not in (None, len(b)):
        raise DimensionMismatchError(f"cannot multiply {len(a)}x{width} by {len(b)}-row matrix")
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_rref(a: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination on primitive integer rows.

    Returns (rows, pivot columns): row r has its pivot at pivots[r] and zeros
    in every other pivot column, so the reduced row echelon form is row r
    divided by its pivot entry.
    """
    rows = [_primitive(list(row)) for row in a]
    nrows = len(rows)
    pivots: list[int] = []
    for c in range(row_width(rows) or 0):
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


def rank(a: Sequence[Sequence[int]]) -> int:
    """Rank over Q of integer rows, eliminated on the short side (transposing keeps the rank)."""
    return len(_integer_rref(transpose(a) if len(a) > (row_width(a) or 0) else a)[1])


def det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of integer rows by Bareiss elimination."""
    n = len(a)
    if row_width(a) not in (None, n):
        raise DimensionMismatchError("determinant of a non-square matrix")
    rows = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            pivot = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top, p = rows[k], rows[k][k]
        for i in range(k + 1, n):
            row, f = rows[i], rows[i][k]
            rows[i] = [0] * (k + 1) + [(p * row[j] - f * top[j]) // prev for j in range(k + 1, n)]
        prev = p
    return sign * rows[-1][-1] if n else 1


def kernel_basis(a: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of the right null space {x : a x = 0} of integer rows, read off
    the reduced row echelon form: one vector per free column f, scaled to
    primitive integers with a positive entry at f."""
    rows, pivots = _integer_rref(a)
    ncols = row_width(a) or 0
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        scale = lcm(*(abs(row[c]) for row, c in zip(rows, pivots) if row[f]))
        v = [0] * ncols
        v[f] = scale
        for row, c in zip(rows, pivots):
            v[c] = -row[f] * scale // row[c]
        basis.append(tuple(_primitive(v)))
    return basis


def intersection_basis(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Rows:
    """Basis of rowspace(a) /\\ rowspace(b), as primitive integer rows, for
    integer matrices with independent rows.

    Solves x^T a = y^T b by finding the kernel of [a^T | -b^T].  Because the
    rows of a and of b are independent, (x, y) -> x^T a is injective on that
    kernel, so the images of a kernel basis are already a basis.
    """
    if rank(a) != len(a) or rank(b) != len(b):
        raise ValueError("intersection_basis needs matrices with independent rows")
    if not a or not b:
        return ()
    if row_width(a) != row_width(b):
        raise DimensionMismatchError("intersection of row spaces of different widths")
    stacked = [ra + tuple(-x for x in rb) for ra, rb in zip(transpose(a), transpose(b))]
    images = mat_mul([sol[: len(a)] for sol in kernel_basis(stacked)], a)
    return tuple(tuple(_primitive(list(row))) for row in images)
