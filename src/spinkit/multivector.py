"""Exact Clifford algebra Cl(0,n) for 1 <= n <= 8.

Conventions used throughout the package:

* generators are 0-based, ``e0 .. e(n-1)``, and square to -1
  (negative-definite convention: ``v*w + w*v = -2<v,w>``);
* a basis blade is encoded as an n-bit mask, bit i meaning "contains e_i",
  and blades are kept in canonical ascending-index order;
* coefficients are exact ``fractions.Fraction`` values and absent blades
  are zero, so every identity below is checked with ``==``, never with a
  tolerance;
* a product runs in integers: each operand is scaled to integer numerators
  over the lcm of its denominators, the numerators are multiplied and
  summed blade by blade, and one ``Fraction`` per output blade is built
  over the product of the two denominators.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Union

from .errors import DimensionMismatchError, UnsupportedDimensionError

Scalar = Union[int, Fraction]

MAX_GENERATORS = 8


def _sign_mask(a: int) -> int:
    """Bit j is the parity of (the bits of a above j) + (bit j of a)."""
    out = 0
    for j in range(MAX_GENERATORS):
        if ((a >> (j + 1)).bit_count() + (a >> j & 1)) & 1:
            out |= 1 << j
    return out


# e_a * e_b = (-1)^popcount(b & _SIGN_MASKS[a]) * e_(a ^ b): moving e_j of b
# left past the generators of a above j takes one transposition each, and
# meeting e_j itself in a contributes e_j^2 = -1.
_SIGN_MASKS = tuple(_sign_mask(a) for a in range(1 << MAX_GENERATORS))


def blade_grade(mask: int) -> int:
    return mask.bit_count()


class Multivector:
    """Element of Cl(0,n) as a sparse blade -> Fraction mapping."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[int, Scalar] | None = None):
        if not 1 <= n <= MAX_GENERATORS:
            raise UnsupportedDimensionError(f"generator count must be 1..{MAX_GENERATORS}, got {n}")
        clean: dict[int, Fraction] = {}
        for mask, coeff in (terms or {}).items():
            if not 0 <= mask < (1 << n):
                raise ValueError(f"blade mask {mask:#x} uses generators beyond n={n}")
            if isinstance(coeff, float):
                raise TypeError("coefficients must be exact (int or Fraction), not float")
            c = Fraction(coeff)
            if c:
                clean[mask] = c
        self.n = n
        self.terms = clean

    @classmethod
    def _trusted(cls, n: int, terms: dict[int, Fraction]) -> "Multivector":
        """Wrap a result computed from valid multivectors of Cl(0,n).

        ``terms`` must already map blades of Cl(0,n) to nonzero Fractions;
        nothing is re-checked or copied.
        """
        out = object.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, n: int, value: Scalar) -> "Multivector":
        return cls(n, {0: value})

    @classmethod
    def basis_vector(cls, n: int, i: int) -> "Multivector":
        if not 0 <= i < n:
            raise ValueError(f"generator index {i} out of range for n={n}")
        return cls(n, {1 << i: 1})

    @classmethod
    def blade(cls, n: int, indices: Iterable[int], coeff: Scalar = 1) -> "Multivector":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"generator index {i} out of range for n={n}")
            if mask & (1 << i):
                raise ValueError("blade indices must be distinct")
            mask |= 1 << i
        return cls(n, {mask: coeff})

    @classmethod
    def vector(cls, n: int, components: Iterable[Scalar]) -> "Multivector":
        comps = list(components)
        if len(comps) != n:
            raise DimensionMismatchError(f"expected {n} components, got {len(comps)}")
        return cls(n, {1 << i: c for i, c in enumerate(comps)})

    def over_common_denominator(self) -> tuple[int, list[tuple[int, int]]]:
        """``(d, [(mask, numerator), ...])`` with each coefficient equal to
        numerator / d, where d is the lcm of the coefficients' denominators."""
        d = lcm(*(c.denominator for c in self.terms.values()))
        return d, [(m, c.numerator * (d // c.denominator)) for m, c in self.terms.items()]

    # -- ring structure ----------------------------------------------------

    def _check_same_algebra(self, other: "Multivector") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"mixing Cl(0,{self.n}) with Cl(0,{other.n})")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_same_algebra(other)
        terms = dict(self.terms)
        for mask, c in other.terms.items():
            total = terms.get(mask, 0) + c
            if total:
                terms[mask] = total
            else:
                del terms[mask]
        return Multivector._trusted(self.n, terms)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector._trusted(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Union["Multivector", Scalar]) -> "Multivector":
        if isinstance(other, (int, Fraction)):
            terms = {m: c * other for m, c in self.terms.items()} if other else {}
            return Multivector._trusted(self.n, terms)
        self._check_same_algebra(other)
        da, a = self.over_common_denominator()
        db, b = other.over_common_denominator()
        d = da * db
        return Multivector._trusted(
            self.n, {m: Fraction(c, d) for m, c in integer_product(a, b).items() if c}
        )

    def __rmul__(self, other: Scalar) -> "Multivector":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Multivector)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"Multivector({self.n}, 0)"
        parts = []
        for mask in sorted(self.terms):
            c = self.terms[mask]
            name = "1" if mask == 0 else "".join(f"e{i}" for i in range(self.n) if mask >> i & 1)
            parts.append(f"{c}*{name}" if mask else f"{c}")
        return f"Multivector({self.n}, {' + '.join(parts)})"

    # -- structure maps ----------------------------------------------------

    def grades(self) -> set[int]:
        return {blade_grade(m) for m in self.terms}

    def scalar_part(self) -> Fraction:
        return self.terms.get(0, Fraction(0))

    def vector_components(self) -> tuple[Fraction, ...]:
        return tuple(self.terms.get(1 << i, Fraction(0)) for i in range(self.n))

    def grade_involution(self) -> "Multivector":
        """Blade of grade k scaled by (-1)^k; splits Cl into even/odd parts."""
        return Multivector._trusted(
            self.n,
            {m: -c if blade_grade(m) & 1 else c for m, c in self.terms.items()},
        )

    def reverse(self) -> "Multivector":
        """Anti-automorphism scaling a grade-k blade by (-1)^(k(k-1)/2)."""
        terms = {}
        for m, c in self.terms.items():
            k = blade_grade(m)
            terms[m] = -c if (k * (k - 1) // 2) & 1 else c
        return Multivector._trusted(self.n, terms)


def integer_product(a: Iterable[tuple[int, int]], b: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Blade -> integer coefficient of the product of two elements given as
    (mask, integer coefficient) pairs.  Coefficients that cancel stay as 0."""
    b = list(b)
    acc: dict[int, int] = {}
    for ma, ca in a:
        signs = _SIGN_MASKS[ma]
        for mb, cb in b:
            m = ma ^ mb
            if (mb & signs).bit_count() & 1:
                acc[m] = acc.get(m, 0) - ca * cb
            else:
                acc[m] = acc.get(m, 0) + ca * cb
    return acc


def integer_vector_part(n: int, a: Iterable[tuple[int, int]], b: Mapping[int, int]) -> list[int]:
    """The n grade-1 coefficients of a * b, computing only those blades, for
    a given as (mask, integer coefficient) pairs and b as a blade -> integer
    coefficient map."""
    acc = [0] * n
    for ma, ca in a:
        signs = _SIGN_MASKS[ma]
        for i in range(n):
            mb = ma ^ (1 << i)
            cb = b.get(mb)
            if cb is None:
                continue
            if (mb & signs).bit_count() & 1:
                acc[i] -= ca * cb
            else:
                acc[i] += ca * cb
    return acc


def p_iso(a: Multivector) -> Multivector:
    """Algebra embedding of Cl(0,n) onto the even part of Cl(0,n+1).

    The new generator takes index 0 and existing generators shift up by
    one: ``e_i -> e0 e_(i+1)``.  On even inputs this is the plain
    index-shifted inclusion.

    In closed form the blade e_S, S = {i1 < ... < ik}, goes to
    +e_((S << 1) | (k mod 2)).  Its image is e0 f1 e0 f2 ... e0 fk with
    f_t = e_(i_t + 1) ascending and anticommuting with e0.  Moving every e0
    to the front passes 0 + 1 + ... + (k-1) = k(k-1)/2 of the f_t, and
    e0^k = (-1)^floor(k/2) e0^(k mod 2); the exponent k(k-1)/2 + floor(k/2)
    is even for every k (check k mod 4), so the sign is always +1.
    """
    if a.n >= MAX_GENERATORS:
        raise UnsupportedDimensionError(f"cannot extend past {MAX_GENERATORS} generators")
    return Multivector._trusted(
        a.n + 1, {(mask << 1) | (mask.bit_count() & 1): c for mask, c in a.terms.items()}
    )


def volume_element(n: int) -> Multivector:
    """Ordered product of all generators: the single top blade."""
    return Multivector(n, {(1 << n) - 1: 1})


def chiral_projectors() -> tuple[Multivector, Multivector]:
    """The idempotents (1 +- omega7)/2 of Cl(0,7)."""
    one = Multivector.scalar(7, 1)
    omega = volume_element(7)
    half = Fraction(1, 2)
    return (one + omega) * half, (one - omega) * half
