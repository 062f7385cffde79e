"""Integer Smith normal form and finitely generated abelian group descriptors.

The normal form is computed with exact arbitrary-precision integers,
selecting the smallest nonzero entry as pivot to keep coefficient growth
in check.  Only the diagonal is returned; base-change matrices are never
needed here.  ``smith_diagonal`` rejects ragged rows through the kernels'
shape guard, ``errors.row_width``.
"""

from __future__ import annotations

from math import gcd

from ._frozen import Frozen
from .errors import row_width


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form, as nonnegative d1 | d2 | ... | dr.

    Zero diagonal entries are dropped; the result lists the nontrivial
    elementary divisors (possibly 1s) of the matrix.
    """
    a = [list(r) for r in rows]
    for r in a:
        if not set(map(type, r)) <= {int}:
            bad = next(x for x in r if type(x) is not int)
            raise TypeError(f"Smith normal form needs integer entries, not {bad!r}")
    m, n = len(a), row_width(a) or 0
    diag: list[int] = []
    top = 0
    while top < m and top < n:
        # locate the smallest nonzero entry in the remaining block
        best = None
        for i in range(top, m):
            for j in range(top, n):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        a[top], a[bi] = a[bi], a[top]
        for row in a:
            row[top], row[bj] = row[bj], row[top]

        while True:
            pivot = a[top][top]
            done = True
            for i in range(top + 1, m):
                q = a[i][top] // pivot
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                if a[i][top]:
                    # remainder smaller than pivot: swap it up and restart
                    a[top], a[i] = a[i], a[top]
                    done = False
                    break
            if not done:
                continue
            for j in range(top + 1, n):
                q = a[top][j] // pivot
                if q:
                    for row in a:
                        row[j] -= q * row[top]
                if a[top][j]:
                    for row in a:
                        row[top], row[j] = row[j], row[top]
                    done = False
                    break
            if done:
                break
        diag.append(abs(a[top][top]))
        top += 1
    return _divisibility_chain(diag)


def _divisibility_chain(values: list[int]) -> list[int]:
    """Rewrite positive integers in place as d1 | d2 | ... by gcd/lcm swaps.

    One pass suffices: values[i] only shrinks to divisors of itself, and
    later swaps replace two of its multiples by their gcd and lcm.
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
        for x in (free_rank, *torsion):
            if type(x) is not int:
                raise TypeError(f"group invariants must be int, not {x!r}")
        if free_rank < 0 or any(t < 1 for t in torsion):
            raise ValueError("free rank must be nonnegative and torsion orders positive")
        tors = tuple(t for t in torsion if t != 1)
        for a, b in zip(tors, tors[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", tors)

    @classmethod
    def from_orders(cls, orders: list[int]) -> "AbelianGroup":
        """Build from arbitrary cyclic orders (0 meaning Z), normalizing."""
        if any(d < 0 for d in orders):
            raise ValueError(f"cyclic orders must be nonnegative, not {min(orders)}")
        free = sum(1 for d in orders if d == 0)
        # the chain may start with 1s, which __init__ drops
        return cls(free, tuple(_divisibility_chain([d for d in orders if d > 1])))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"
