"""Integer Smith normal form and finitely generated abelian group descriptors.

The normal form is computed with exact arbitrary-precision integers.  Step t
takes as pivot the first entry of least nonzero absolute value, in row-major
order, of the live block (rows and columns t and beyond); one row swap and
one column swap bring it to (t, t).  Its column is then cleared by integer
division and its row likewise; a nonzero remainder is swapped into (t, t)
and the step restarts.  The row-major order is kept on purpose: entry growth
in integer elimination depends on the pivot order, so another order (one that
moves rows after each pivot, say) can grow the entries of a big-entry matrix
much faster, though it reaches the same diagonal.  Only the diagonal is
returned; base-change matrices are never needed here.  ``smith_diagonal``
rejects ragged rows through the kernels' shape guard, ``errors.row_width``.
"""

from __future__ import annotations

from itertools import chain
from math import gcd

from .errors import Frozen, row_width


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form, as nonnegative d1 | d2 | ... | dr.

    Zero diagonal entries are dropped; the result lists the nontrivial
    elementary divisors (possibly 1s) of the matrix.  ``rows`` may hold
    lists or tuples and is left unchanged.

    The pivots are those the module docstring names, and every step
    reaches the same matrix as the full elimination loop while touching
    only the live block.  Before step t the finished block is fixed: for
    s < t, entry (s, s) is the s-th diagonal value and every other entry of
    row s and of column s is zero.  So the pivot scan stops at the first
    +-1, which no later entry can beat; column swaps touch rows t and below;
    rows with a zero in the pivot column are skipped; and once the column
    below the pivot is clear, a column operation changes the pivot row
    alone.
    """
    a = [list(r) for r in rows]
    if not set(map(type, chain.from_iterable(a))) <= {int}:
        bad = next(x for x in chain.from_iterable(a) if type(x) is not int)
        raise TypeError(f"Smith normal form needs integer entries, not {bad!r}")
    m, n = len(a), row_width(a) or 0
    diag: list[int] = []
    for top in range(min(m, n)):
        best = 0
        for i in range(top, m):
            row = a[i]
            # the finished columns of a live row are zero, so the whole row is scanned
            if any(row):
                v = min(map(abs, filter(None, row)))
                if not best or v < best:
                    best, bi = v, i
                    if v == 1:
                        break
        if not best:
            break
        bj = list(map(abs, a[bi])).index(best)
        a[top], a[bi] = a[bi], a[top]
        if bj != top:
            for row in a[top:]:
                row[top], row[bj] = row[bj], row[top]
        while _eliminate(a, top):
            pass
        diag.append(abs(a[top][top]))
    return _divisibility_chain(diag)


def _eliminate(a: list[list[int]], top: int) -> bool:
    """One pass of step ``top``: clear the pivot column, then the pivot row.

    Rows below the pivot drop multiples of the pivot row; only the pivot
    row's nonzero entries enter.  Once the column below the pivot is clear
    a column operation changes the pivot row alone, so each entry right of
    the pivot becomes its remainder mod the pivot.  Returns True when a
    nonzero remainder was swapped into the pivot position, which restarts
    the step.
    """
    prow = a[top]
    pivot = prow[top]
    # the pivot row is zero left of the pivot, so support[0] is (top, pivot)
    support = [(j, y) for j, y in enumerate(prow) if y]
    for i in range(top + 1, len(a)):
        row = a[i]
        x = row[top]
        if x:
            q = x // pivot
            if q:
                for j, y in support:
                    row[j] -= q * y
            if row[top]:
                a[top], a[i] = row, prow
                return True
    for j, y in support[1:]:
        y = prow[j] = y % pivot
        if y:
            for row in a[top:]:
                row[top], row[j] = row[j], row[top]
            return True
    return False


def _divisibility_chain(values: list[int]) -> list[int]:
    """Rewrite positive integers in place as d1 | d2 | ... by gcd/lcm swaps.

    One sweep suffices: values[i] only shrinks to divisors of itself, and
    later swaps replace two of its multiples by their gcd and lcm.  A chain
    needs no swap, so it comes back unchanged.
    """
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[j] % values[i]:
                g = gcd(values[i], values[j])
                values[i], values[j] = g, values[i] * values[j] // g
    return values


class AbelianGroup(Frozen):
    """Z^free_rank + Z/t1 + Z/t2 + ... with 1 < t1 | t2 | ..."""

    _fields = __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        if type(free_rank) is not int or not set(map(type, torsion)) <= {int}:
            bad = next(x for x in (free_rank, *torsion) if type(x) is not int)
            raise TypeError(f"group invariants must be int, not {bad!r}")
        if free_rank < 0 or min(torsion, default=1) < 1:
            raise ValueError("free rank must be nonnegative and torsion orders positive")
        # a tuple with no 1s is kept, not copied: copying every H^k group's torsion raised peak memory
        tors = tuple(t for t in torsion if t != 1) if 1 in torsion else tuple(torsion)
        if any(map(int.__mod__, tors[1:], tors)):
            raise ValueError("torsion coefficients must form a divisibility chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", tors)

    @classmethod
    def from_orders(cls, orders: list[int]) -> "AbelianGroup":
        """Build from arbitrary cyclic orders (0 meaning Z), normalizing."""
        low = min(orders, default=0)
        if low < 0:
            raise ValueError(f"cyclic orders must be nonnegative, not {low}")
        # the chain may start with 1s, which __init__ drops
        return cls(orders.count(0), tuple(_divisibility_chain([d for d in orders if d > 1])))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"
