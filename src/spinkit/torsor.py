"""Affine difference functions versus free transitive abelian actions.

The equivalence is verified exhaustively on finite carriers: a difference
table D : Gamma x Gamma -> H satisfying

  (a)  D(x, z) = D(x, y) + D(y, z)          (cocycle condition)
  (b)  D(x, y) = 0  iff  x = y
  (c)  D(x, .) : Gamma -> H is a bijection for every x

is the same data as a free transitive action of H on Gamma, and the two
constructions below invert each other.

Each direction is certified from one base point b = carrier[0]: the one
reader of both tables, ``_read``, finds the table complete and the carrier
as large as H (so no label is repeated once the base-point map is a
bijection), the base-point map is a bijection onto its target, and the
compatibility law holds at b.  For a
difference table, the base row D(b, .) is a bijection onto the reduced
elements of H, and the law (a) at b is checked in the form
D(y, z) = D(b, z) - D(b, y), as an equality of tuples, so every value is a
reduced element and D(x, .) = D(b, .) - D(b, x).  Hence (a) holds at every
triple; D(x, y) = 0 iff D(b, x) = D(b, y) iff x = y, which is (b); and
every row is a translate of the bijection D(b, .), which is (c).  For an
action, write x = h_x.b: then k.(h.x) = (h_x + h + k).b = (h + k).x, the
orbit h -> (h_x + h).b is a bijection, and 0.x = (h_x + 0).b = x, at
every x.

All group arithmetic is read off one integer table per group,
``FiniteAbelianGroup.shifts``: ``shifts[j][i]`` is the index in
``elements()`` of e_i - e_j, built once per group instance and cached.  The
regular table reads D(x, y) = y - x from it, the cocycle step reads
D(b, z) - D(b, y) from the row of D(b, y), and the compatibility step reads
h + k = k - (-h), with -h = 0 - h the first entry of the row of h.  Each
check reads the candidate table once, in product order, and compares whole
rows against the rows read off ``shifts``; it walks a row only to name the
triple at which the law fails.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import chain, product, repeat
from math import prod

from .errors import Frozen, TorsorError

Element = tuple[int, ...]

# The largest group order whose torsor tables are built exhaustively, by
# torsor-check and by the census cross-check; an order-n group's tables
# have n^2 entries each.
MAX_TORSOR_ORDER = 64

# What the certificates read for a key that a candidate table lacks.
_MISSING = object()


class FiniteAbelianGroup(Frozen):
    """Direct sum of cyclic groups; elements are tuples of residues."""

    _fields = ("orders",)
    __slots__ = ("orders", "__dict__")  # __dict__ holds the cached shifts

    def __init__(self, orders: tuple[int, ...]):
        orders = tuple(orders)
        for m in orders:
            if type(m) is not int:
                raise TypeError(f"cyclic orders must be integers, not {m!r}")
        if any(m < 1 for m in orders):
            raise ValueError("cyclic orders must be positive")
        object.__setattr__(self, "orders", orders)

    def order(self) -> int:
        return prod(self.orders)

    def elements(self) -> list[Element]:
        return list(product(*(range(m) for m in self.orders)))

    @cached_property
    def shifts(self) -> list[list[int]]:
        """shifts[j][i] is the index in elements() of e_i - e_j."""
        # a cyclic factor's rows are its rotations; appending a factor of
        # order m sends the index p of the earlier factors to p * m + t
        table = [[0]]
        for m in self.orders:
            rotations = [[(t - s) % m for t in range(m)] for s in range(m)]
            table = [[p * m + t for p in row for t in rotation] for row in table for rotation in rotations]
        return table

    def __str__(self) -> str:
        if self.order() == 1:
            return "0"
        return " x ".join(f"Z/{m}" for m in self.orders if m > 1)


class _Table(Frozen):
    """A group, a carrier and a candidate table; == and hash leave the table out."""

    _fields = __slots__ = ("group", "carrier", "table")

    def __init__(self, group: FiniteAbelianGroup, carrier: tuple[str, ...], table: dict):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "table", table)

    def _key(self) -> tuple:
        return self.group, self.carrier


class DifferenceTable(_Table):
    """Carrier set with a candidate affine difference function D(x, y) = table[(x, y)]."""

    __slots__ = ()


class ActionTable(_Table):
    """Carrier set with a candidate group action h . x = table[(h, x)]."""

    __slots__ = ()


def _read(t: _Table, rows: tuple | list, missing: str) -> list:
    """table[(r, x)] for r in rows and x in the carrier, in product order,
    once the carrier is nonempty, complete and as large as the group."""
    carrier = t.carrier
    if not carrier:
        raise TorsorError("carrier is empty")
    values = list(map(t.table.get, product(rows, carrier), repeat(_MISSING)))
    n = len(carrier)
    if _MISSING in values:
        i, j = divmod(values.index(_MISSING), n)
        raise TorsorError(missing.format(rows[i], carrier[j]))
    if n != t.group.order():
        raise TorsorError(f"carrier size {n} != group order {t.group.order()}")
    return values


def verify_difference_axioms(d: DifferenceTable) -> list:
    """Certify (a)-(c) from the base point and return the values D(x, y) in
    product order; raise TorsorError naming the failed step."""
    g, carrier = d.group, d.carrier
    values = _read(d, carrier, "missing difference value for ({},{})")
    n, b, elements = len(carrier), carrier[0], g.elements()
    base = values[:n]
    if set(base) != set(elements):
        raise TorsorError(f"D({b}, .) is not a bijection onto the group")
    # D(y, z) = D(b, z) - D(b, y): row D(b, y) of shifts, read at D(b, z)
    index = dict(zip(elements, range(n)))
    at = [index[h] for h in base]
    shifts = g.shifts
    expected = [elements[shifts[j][i]] for j in at for i in at]
    if values != expected:
        k = next(k for k, (v, e) in enumerate(zip(values, expected)) if v != e)
        raise TorsorError(f"cocycle fails at ({b},{carrier[k // n]},{carrier[k % n]})")
    return values


def action_from_difference(d: DifferenceTable) -> ActionTable:
    """The action h . x = (the unique y with D(x, y) = h)."""
    values = verify_difference_axioms(d)
    n = len(d.carrier)
    xs = chain.from_iterable(map(repeat, d.carrier, repeat(n)))
    return ActionTable(d.group, d.carrier, dict(zip(zip(values, xs), d.carrier * n)))


def _validate_action(a: ActionTable) -> list:
    """Certify a free transitive action from the base point; return the values
    h . x in product order, or raise TorsorError."""
    g, carrier = a.group, a.carrier
    elements = g.elements()
    values = _read(a, elements, "action value missing for ({},{})")
    n = len(carrier)
    at_b = values[::n]
    orbit = set(at_b)
    if len(orbit) != len(elements):
        raise TorsorError("action is not free")
    if orbit != set(carrier):
        raise TorsorError("action is not transitive")
    # k . (h . b) = (h + k) . b, where h + k = k - (-h) and -h = 0 - h
    column = dict(zip(carrier, range(n)))
    shifts = g.shifts
    for row, x in zip(shifts, at_b):
        if values[column[x]::n] != list(map(at_b.__getitem__, shifts[row[0]])):
            raise TorsorError("action is not compatible with addition")
    return values


def difference_from_action(a: ActionTable) -> DifferenceTable:
    """D(x, y) = the unique h with y = h . x, for a free transitive action."""
    values = _validate_action(a)
    n = len(a.carrier)
    hs = chain.from_iterable(map(repeat, a.group.elements(), repeat(n)))
    return DifferenceTable(a.group, a.carrier, dict(zip(zip(a.carrier * n, values), hs)))


def regular_difference_table(g: FiniteAbelianGroup) -> DifferenceTable:
    """The regular torsor: Gamma = H with D(x, y) = y - x.

    The element (e_1, ..., e_r) is labelled "g" followed by its components
    joined by "_", so no two elements share a label: "g3" in Z/4, "g1_11"
    and "g11_1" in Z/12 x Z/12.  TorsorError messages separate labels
    with ",".
    """
    elements = g.elements()
    carrier = tuple("g" + "_".join(map(str, e)) for e in elements)
    # row x of shifts holds the indices of y - x, y in the order of elements()
    values = map(elements.__getitem__, chain.from_iterable(g.shifts))
    return DifferenceTable(g, carrier, dict(zip(product(carrier, repeat=2), values)))


def abelian_groups_up_to(max_order: int) -> Iterator[FiniteAbelianGroup]:
    """All finite abelian groups of order <= max_order, one per isomorphism class.

    Each group is a product of prime-power cyclic factors; classes are
    enumerated by partitions of the exponent of every prime factor.  The
    groups are yielded one at a time, so a caller that drops each group
    after use also drops its cached shift table.
    """
    for n in range(1, max_order + 1):
        per_prime = [
            [tuple(p**k for k in part) for part in _partitions(e, e)]
            for p, e in _prime_factorization(n).items()
        ]
        for shapes in product(*per_prime):
            yield FiniteAbelianGroup(sum(shapes, ()))


def _partitions(n: int, cap: int):
    """Partitions of n into parts <= cap, each non-increasing, largest first."""
    if n == 0:
        yield ()
    for part in range(min(cap, n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _prime_factorization(n: int) -> dict[int, int]:
    """Exponents of the prime factors of n, in increasing order of the prime."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
