"""Small exact linear algebra kit over the rationals.

A rational matrix is one pair ``(d, rows)`` of a positive int d and rows of
ints, entry (i, j) being rows[i][j] / d; a vector is ``(d, entries)``.
:func:`exact` builds the pair in lowest terms (gcd of d and every entry 1),
so ``==`` on pairs is equality of values.

The kernels run on integer rows.  The product of ``(da, a)`` and
``(db, b)`` is ``exact(da * db, mat_mul(a, b))``; a rank or a kernel
ignores row scaling, so ``rank`` and ``kernel_basis`` read the rows alone
and eliminate on them kept primitive (divided by their gcd) after every
update.  Both read one forward elimination to row echelon form: ``rank``
counts its pivots, on the short side (a tall matrix's transpose), and
``kernel_basis`` back-clears them to the reduced form it reads.
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


def _cleared(row: list[int], top: list[int], c: int) -> list[int]:
    """The primitive combination of row and top that is zero in column c."""
    g = gcd(top[c], row[c])
    p, q = top[c] // g, row[c] // g
    return _primitive([p * x - q * y for x, y in zip(row, top)])


def _echelon(a: Sequence[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """Forward elimination of integer rows to row echelon form: (leading
    column, primitive row) for each pivot, in the order found.  Each pivot,
    a nonzero row, clears its leading column from the rows left, kept
    primitive and dropped once zero; so every pivot is zero in the columns
    of the pivots found before it, and their number is the rank."""
    rows = [_primitive(list(row)) for row in a if any(row)]
    pivots = []
    while rows:
        top = rows.pop()
        c = next(i for i, x in enumerate(top) if x)
        left = []
        for row in rows:
            if row[c]:
                row = _cleared(row, top, c)
                if not any(row):
                    continue
            left.append(row)
        rows = left
        pivots.append((c, top))
    return pivots


def rank(a: Sequence[Sequence[int]]) -> int:
    """Rank over Q of integer rows: the number of ``_echelon`` pivots, on
    the short side (transposing keeps the rank).  Nothing above a pivot is
    cleared."""
    return len(_echelon(transpose(a) if len(a) > (row_width(a) or 0) else a))


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
    """Basis of the right null space {x : a x = 0} of integer rows: one
    vector per free column f, scaled to primitive integers with a positive
    entry at f.  It is read off the ``_echelon`` pivots once each pivot's
    column is cleared from the pivots found before it, last found first;
    the pivots found after it are already zero there."""
    ncols = row_width(a) or 0
    pivots = _echelon(a)
    for j in range(len(pivots) - 1, 0, -1):
        c, top = pivots[j]
        for i in range(j):
            ci, row = pivots[i]
            if row[c]:
                pivots[i] = ci, _cleared(row, top, c)
    leading = {c for c, _ in pivots}
    basis = []
    for f in (c for c in range(ncols) if c not in leading):
        scale = lcm(*(abs(row[c]) for c, row in pivots if row[f]))
        v = [0] * ncols
        v[f] = scale
        for c, row in pivots:
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
