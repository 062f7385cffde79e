"""Affine difference functions versus free transitive abelian actions.

The equivalence is verified exhaustively on finite carriers: a difference
table D : Gamma x Gamma -> H satisfying

  (a)  D(x, z) = D(x, y) + D(y, z)          (cocycle condition)
  (b)  D(x, y) = 0  iff  x = y
  (c)  D(x, .) : Gamma -> H is a bijection for every x

is the same data as a free transitive action of H on Gamma, and the two
constructions below invert each other.

Each direction is certified from one base point b = carrier[0]: the table
is complete, the carrier has as many labels as H has elements (so no label
is repeated once the base-point map is a bijection), the base-point map is
a bijection onto its target, and the compatibility law holds at b.  For a
difference table, the base row D(b, .) is a bijection onto the reduced
elements of H, and the law (a) at b is checked in the form
D(y, z) = D(b, z) - D(b, y), as an equality of tuples, so every value is a
reduced element and D(x, .) = D(b, .) - D(b, x).  Hence (a) holds at every
triple; D(x, y) = 0 iff D(b, x) = D(b, y) iff x = y, which is (b); and
every row is a translate of the bijection D(b, .), which is (c).  For an
action, write x = h_x.b: then k.(h.x) = (h_x + h + k).b = (h + k).x, the
orbit h -> (h_x + h).b is a bijection, and 0.x = (h_x + 0).b = x, at
every x.

All group arithmetic is read off one subtraction table per group,
``FiniteAbelianGroup.differences`` (a -> {b: a - b}), built once per group
instance and cached: the regular table reads D(x, y) = y - x from it, the
cocycle step reads D(b, z) - D(b, y) from the row of D(b, z), and the
compatibility step reads h + k = h - (-k), with -k taken from the row of
zero.  A check of one group therefore builds its |H|^2 differences once.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import product

from ._frozen import Frozen
from .errors import TorsorError

Element = tuple[int, ...]

# The largest group order whose torsor tables are built exhaustively, by
# torsor-check and by the census cross-check; an order-n group's tables
# have n^2 entries each.
MAX_TORSOR_ORDER = 64


class FiniteAbelianGroup(Frozen):
    """Direct sum of cyclic groups; elements are tuples of residues."""

    _fields = ("orders",)
    __slots__ = ("orders", "__dict__")  # __dict__ holds the cached differences

    def __init__(self, orders: tuple[int, ...]):
        object.__setattr__(self, "orders", orders)
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(self.orders))
        for m in self.orders:
            if type(m) is not int:
                raise TypeError(f"cyclic orders must be integers, not {m!r}")
        if any(m < 1 for m in self.orders):
            raise ValueError("cyclic orders must be positive")

    @property
    def zero(self) -> Element:
        return (0,) * len(self.orders)

    def order(self) -> int:
        out = 1
        for m in self.orders:
            out *= m
        return out

    def elements(self) -> list[Element]:
        return list(product(*(range(m) for m in self.orders)))

    @cached_property
    def differences(self) -> dict[Element, dict[Element, Element]]:
        """The subtraction table a -> {b: a - b}, rows and keys in the order of elements()."""
        elements = self.elements()
        # with b in product order, a - b runs over the product of the
        # columns (a_i - t) mod m_i, t = 0 .. m_i - 1
        return {
            a: dict(zip(elements, product(*(
                [(x - t) % m for t in range(m)] for x, m in zip(a, self.orders)
            ))))
            for a in elements
        }

    def __str__(self) -> str:
        if self.order() == 1:
            return "0"
        return " x ".join(f"Z/{m}" for m in self.orders if m > 1)


class DifferenceTable(Frozen):
    """Carrier set with a candidate affine difference function D(x, y) = table[(x, y)]."""

    _fields = __slots__ = ("group", "carrier", "table")

    def __init__(
        self, group: FiniteAbelianGroup, carrier: tuple[str, ...], table: dict[tuple[str, str], Element]
    ):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "table", table)

    def _key(self) -> tuple:
        return self.group, self.carrier  # == and hash leave the table out


class ActionTable(Frozen):
    """Carrier set with a candidate group action h . x = table[(h, x)]."""

    _fields = __slots__ = ("group", "carrier", "table")

    def __init__(
        self, group: FiniteAbelianGroup, carrier: tuple[str, ...], table: dict[tuple[Element, str], str]
    ):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "table", table)

    def _key(self) -> tuple:
        return self.group, self.carrier  # == and hash leave the table out


def verify_difference_axioms(d: DifferenceTable) -> None:
    """Certify (a)-(c) from the base point; raise TorsorError naming the failed step."""
    g = d.group
    if not d.carrier:
        raise TorsorError("carrier is empty")
    for x, y in product(d.carrier, repeat=2):
        if (x, y) not in d.table:
            raise TorsorError(f"missing difference value for ({x},{y})")
    if len(d.carrier) != g.order():
        raise TorsorError(f"carrier size {len(d.carrier)} != group order {g.order()}")
    b = d.carrier[0]
    base = {y: d.table[(b, y)] for y in d.carrier}
    if set(base.values()) != set(g.elements()):
        raise TorsorError(f"D({b}, .) is not a bijection onto the group")
    # D(b, z) - D(b, y) is the entry D(b, y) of the row of D(b, z)
    base_rows = [(z, g.differences[base[z]]) for z in d.carrier]
    for y in d.carrier:
        h = base[y]
        for z, row in base_rows:
            if d.table[(y, z)] != row[h]:
                raise TorsorError(f"cocycle fails at ({b},{y},{z})")


def action_from_difference(d: DifferenceTable) -> ActionTable:
    """The action h . x = (the unique y with D(x, y) = h)."""
    verify_difference_axioms(d)
    table = {(d.table[(x, y)], x): y for x in d.carrier for y in d.carrier}
    return ActionTable(d.group, d.carrier, table)


def _validate_action(a: ActionTable) -> None:
    """Certify a free transitive action from the base point; raise TorsorError."""
    g = a.group
    elements = g.elements()
    if not a.carrier:
        raise TorsorError("carrier is empty")
    for h, x in product(elements, a.carrier):
        if (h, x) not in a.table:
            raise TorsorError(f"action value missing for ({h},{x})")
    if len(a.carrier) != g.order():
        raise TorsorError(f"carrier size {len(a.carrier)} != group order {g.order()}")
    b = a.carrier[0]
    at_b = {h: a.table[(h, b)] for h in elements}
    orbit = set(at_b.values())
    if len(orbit) != len(elements):
        raise TorsorError("action is not free")
    if orbit != set(a.carrier):
        raise TorsorError("action is not transitive")
    # h + k = h - (-k), and -k is the entry k of the row of zero
    negatives = list(g.differences[g.zero].items())
    for h in elements:
        row, x = g.differences[h], at_b[h]
        for k, minus_k in negatives:
            if a.table[(k, x)] != at_b[row[minus_k]]:
                raise TorsorError("action is not compatible with addition")


def difference_from_action(a: ActionTable) -> DifferenceTable:
    """D(x, y) = the unique h with y = h . x, for a free transitive action."""
    _validate_action(a)
    table = {(x, a.table[(h, x)]): h for h, x in product(a.group.elements(), a.carrier)}
    return DifferenceTable(a.group, a.carrier, table)


def regular_difference_table(g: FiniteAbelianGroup) -> DifferenceTable:
    """The regular torsor: Gamma = H with D(x, y) = y - x."""
    labels = {e: "g" + "".join(str(c) for c in e) for e in g.elements()}
    carrier = tuple(labels.values())
    rows = [(labels[y], row) for y, row in g.differences.items()]
    table = {(lx, ly): row[x] for x, lx in labels.items() for ly, row in rows}
    return DifferenceTable(g, carrier, table)


def abelian_groups_up_to(max_order: int) -> Iterator[FiniteAbelianGroup]:
    """All finite abelian groups of order <= max_order, one per isomorphism class.

    Each group is a product of prime-power cyclic factors; classes are
    enumerated by partitions of the exponent of every prime factor.  The
    groups are yielded one at a time, so a caller that drops each group
    after use also drops its cached subtraction table.
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
