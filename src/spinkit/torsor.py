"""Affine difference functions versus free transitive abelian actions.

The equivalence is verified exhaustively on finite carriers: a difference
table D : Gamma x Gamma -> H satisfying

  (a)  D(x, z) = D(x, y) + D(y, z)          (cocycle condition)
  (b)  D(x, y) = 0  iff  x = y
  (c)  D(x, .) : Gamma -> H is a bijection for every x

is the same data as a free transitive action of H on Gamma, and the two
constructions below invert each other.

Both laws are checked from one base point b = carrier[0].  If (a) holds at
every (b, y, z), then D(y, z) = D(b, z) - D(b, y), so (a) holds at every
triple.  If h -> h.b is a bijection H -> Gamma and k.(h.b) = (h + k).b for
all h, k, then x = h_x.b gives k.(h.x) = (h + k).x and an orbit
h -> (h_x + h).b that is again a bijection, at every x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import TorsorError

Element = tuple[int, ...]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct sum of cyclic groups; elements are tuples of residues."""

    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(m) for m in self.orders))
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

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % m for x, m in zip(a, self.orders))

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def __str__(self) -> str:
        if not self.orders or self.order() == 1:
            return "0"
        return " x ".join(f"Z/{m}" for m in self.orders if m > 1) or "0"


@dataclass(frozen=True)
class DifferenceTable:
    """Carrier set with a candidate affine difference function."""

    group: FiniteAbelianGroup
    carrier: tuple[str, ...]
    table: dict[tuple[str, str], Element] = field(compare=False)

    def difference(self, x: str, y: str) -> Element:
        return self.table[(x, y)]


@dataclass(frozen=True)
class ActionTable:
    """Carrier set with a candidate group action h . x."""

    group: FiniteAbelianGroup
    carrier: tuple[str, ...]
    table: dict[tuple[Element, str], str] = field(compare=False)

    def act(self, h: Element, x: str) -> str:
        return self.table[(h, x)]


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the exhaustive difference-function axiom check."""

    passed: bool
    failures: tuple[str, ...]

    def __str__(self) -> str:
        return "all axioms hold" if self.passed else "; ".join(self.failures)


def verify_difference_axioms(d: DifferenceTable) -> AxiomReport:
    """Check the cocycle (from the base point), separation and solvability axioms."""
    g = d.group
    failures: list[str] = []
    if not d.carrier:
        return AxiomReport(False, ("carrier is empty",))
    for x, y in product(d.carrier, repeat=2):
        if (x, y) not in d.table:
            failures.append(f"missing difference value for ({x},{y})")
    if failures:
        return AxiomReport(False, tuple(failures[:1]))
    b = d.carrier[0]
    for y, z in product(d.carrier, repeat=2):
        if d.difference(b, z) != g.add(d.difference(b, y), d.difference(y, z)):
            failures.append(f"cocycle fails at ({b},{y},{z})")
            break
    for x, y in product(d.carrier, repeat=2):
        vanish = d.difference(x, y) == g.zero
        if vanish != (x == y):
            failures.append(f"separation fails at ({x},{y})")
            break
    for x in d.carrier:
        seen = {d.difference(x, y) for y in d.carrier}
        if len(seen) != len(d.carrier) or (len(d.carrier) == g.order() and seen != set(g.elements())):
            failures.append(f"solvability fails at {x}")
            break
        if len(d.carrier) != g.order():
            failures.append(f"carrier size {len(d.carrier)} != group order {g.order()}")
            break
    return AxiomReport(not failures, tuple(failures))


def action_from_difference(d: DifferenceTable) -> ActionTable:
    """The action h . x = (the unique y with D(x, y) = h)."""
    report = verify_difference_axioms(d)
    if not report.passed:
        raise TorsorError(f"difference table is not affine: {report}")
    g = d.group
    table: dict[tuple[Element, str], str] = {}
    for x in d.carrier:
        for y in d.carrier:
            table[(d.difference(x, y), x)] = y
    return ActionTable(g, d.carrier, table)


def _validate_action(a: ActionTable) -> None:
    g = a.group
    elements = g.elements()
    if not a.carrier:
        raise TorsorError("carrier is empty")
    for h, x in product(elements, a.carrier):
        if (h, x) not in a.table:
            raise TorsorError(f"action value missing for ({h},{x})")
    for x in a.carrier:
        if a.act(g.zero, x) != x:
            raise TorsorError("zero does not act as the identity")
    b = a.carrier[0]
    orbit = {a.act(h, b) for h in elements}
    if len(orbit) != len(elements):
        raise TorsorError("action is not free")
    if orbit != set(a.carrier):
        raise TorsorError("action is not transitive")
    for h, k in product(elements, repeat=2):
        if a.act(k, a.act(h, b)) != a.act(g.add(h, k), b):
            raise TorsorError("action is not compatible with addition")


def difference_from_action(a: ActionTable) -> DifferenceTable:
    """D(x, y) = the unique h with y = h . x, for a free transitive action."""
    _validate_action(a)
    table: dict[tuple[str, str], Element] = {}
    for h, x in product(a.group.elements(), a.carrier):
        table[(x, a.act(h, x))] = h
    return DifferenceTable(a.group, a.carrier, table)


def regular_difference_table(g: FiniteAbelianGroup) -> DifferenceTable:
    """The regular torsor: Gamma = H with D(x, y) = y - x."""
    labels = {e: "g" + "".join(str(c) for c in e) for e in g.elements()}
    carrier = tuple(labels[e] for e in g.elements())
    table = {
        (labels[x], labels[y]): g.sub(y, x)
        for x, y in product(g.elements(), repeat=2)
    }
    return DifferenceTable(g, carrier, table)


def abelian_groups_up_to(max_order: int) -> list[FiniteAbelianGroup]:
    """All finite abelian groups of order <= max_order, one per isomorphism class.

    Each group is a product of prime-power cyclic factors; classes are
    enumerated by partitions of the exponent of every prime factor.
    """
    out: list[FiniteAbelianGroup] = []
    for n in range(1, max_order + 1):
        out.extend(FiniteAbelianGroup(f) for f in _factor_shapes(n))
    return out


def _partitions(n: int) -> list[list[int]]:
    if n == 0:
        return [[]]
    result = []

    def rec(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            result.append(list(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return result


def _prime_factorization(n: int) -> dict[int, int]:
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


def _factor_shapes(n: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(1,)]
    per_prime: list[list[tuple[int, ...]]] = []
    for p, e in sorted(_prime_factorization(n).items()):
        shapes = [tuple(p**k for k in part) for part in _partitions(e)]
        per_prime.append(shapes)
    out: list[tuple[int, ...]] = []

    def rec(i: int, acc: tuple[int, ...]):
        if i == len(per_prime):
            out.append(acc)
            return
        for shape in per_prime[i]:
            rec(i + 1, acc + shape)

    rec(0, ())
    return out
