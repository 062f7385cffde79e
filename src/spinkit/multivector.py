"""Exact Clifford algebra Cl(0,n) for 1 <= n <= 8.

Conventions used throughout the package:

* generators are 0-based, ``e0 .. e(n-1)``, and square to -1
  (negative-definite convention: ``v*w + w*v = -2<v,w>``);
* a basis blade is encoded as an n-bit mask, bit i meaning "contains e_i",
  and blades are kept in canonical ascending-index order;
* a multivector has the one exact form of ``exactlinalg``, fixed once
  built: nonzero integer numerators ``terms`` (a read-only blade -> int
  mapping) over one positive denominator ``d``, in lowest terms (gcd of d
  and every numerator 1), and absent blades are zero, so every identity
  below is checked with ``==``, never with a tolerance;
* a product multiplies the numerators blade by blade over the product of
  the two denominators and divides out one gcd; the sign of each blade
  product is ``PARITY[mb & SIGN_MASKS[ma]]``, one lookup in a 256-entry
  table of popcount parities.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .errors import DimensionMismatchError, UnsupportedDimensionError
from .exactlinalg import exact

Scalar = Union[int, Fraction]

MAX_GENERATORS = 8


def _sign_mask(a: int) -> int:
    """Bit j is the parity of (the bits of a above j) + (bit j of a), which
    are together the bits of a >> j."""
    return sum(((a >> j).bit_count() & 1) << j for j in range(MAX_GENERATORS))


# e_a * e_b = (-1)^popcount(b & SIGN_MASKS[a]) * e_(a ^ b): moving e_j of b
# left past the generators of a above j takes one transposition each, and
# meeting e_j itself in a contributes e_j^2 = -1.
SIGN_MASKS = tuple(_sign_mask(a) for a in range(1 << MAX_GENERATORS))
# PARITY[x] is the parity of the number of set bits of x.
PARITY = tuple(x.bit_count() & 1 for x in range(1 << MAX_GENERATORS))


def blade_grade(mask: int) -> int:
    return mask.bit_count()


class Multivector:
    """Element of Cl(0,n): blade -> nonzero int numerator ``terms`` over the
    positive denominator ``d``, in lowest terms."""

    __slots__ = ("_n", "_d", "_terms")

    def __init__(self, n: int, terms: Mapping[int, Scalar] | None = None):
        if type(n) is not int:
            raise TypeError(f"generator count {n!r} must be int, not {type(n).__name__}")
        if not 1 <= n <= MAX_GENERATORS:
            raise UnsupportedDimensionError(f"generator count must be 1..{MAX_GENERATORS}, got {n}")
        terms = dict(terms or {})
        for mask in terms:
            if type(mask) is not int:
                raise TypeError(f"blade masks must be int, not {type(mask).__name__}")
            if not 0 <= mask < (1 << n):
                raise ValueError(f"blade mask {mask:#x} uses generators beyond n={n}")
        d, (numerators,) = exact(1, [terms.values()])
        self._n = n
        self._d = d
        self._terms = {m: c for m, c in zip(terms, numerators) if c}

    @property
    def n(self) -> int:
        return self._n

    @property
    def d(self) -> int:
        return self._d

    @property
    def terms(self) -> Mapping[int, int]:
        return MappingProxyType(self._terms)

    @classmethod
    def _over(cls, n: int, d: int, numerators: dict[int, int]) -> "Multivector":
        """The element of Cl(0,n) with the given blade -> int numerators over
        d > 0: zeros are dropped and the gcd divided out, nothing else is
        checked.  A dict with no zero and gcd 1 is kept, not copied, so
        callers pass one they no longer touch."""
        terms = {m: c for m, c in numerators.items() if c} if 0 in numerators.values() else numerators
        g = gcd(d, *terms.values())
        out = object.__new__(cls)
        out._n = n
        out._d = d // g
        out._terms = {m: c // g for m, c in terms.items()} if g > 1 else terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, n: int, value: Scalar) -> "Multivector":
        return cls(n, {0: value})

    @classmethod
    def basis_vector(cls, n: int, i: int) -> "Multivector":
        return cls.blade(n, [i])

    @classmethod
    def blade(cls, n: int, indices: Iterable[int]) -> "Multivector":
        mask = 0
        for i in indices:
            if type(i) is not int:
                raise TypeError(f"generator index {i!r} must be int, not {type(i).__name__}")
            if not 0 <= i < n:
                raise ValueError(f"generator index {i} out of range for n={n}")
            if mask & (1 << i):
                raise ValueError("blade indices must be distinct")
            mask |= 1 << i
        return cls(n, {mask: 1})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            raise TypeError(f"operand must be a Multivector, not {type(other).__name__}")
        if self._n != other._n:
            raise DimensionMismatchError(f"mixing Cl(0,{self._n}) with Cl(0,{other._n})")
        d = lcm(self._d, other._d)
        fa, fb = d // self._d, d // other._d
        terms = {m: c * fa for m, c in self._terms.items()}
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) + c * fb
        return Multivector._over(self._n, d, terms)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other if isinstance(other, Multivector) else other)  # __add__ rejects the rest

    def __neg__(self) -> "Multivector":
        return Multivector._over(self._n, self._d, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other: Union["Multivector", Scalar]) -> "Multivector":
        t = type(other)
        if t is int or t is Fraction:
            p = other.numerator
            return Multivector._over(
                self._n, self._d * other.denominator, {m: c * p for m, c in self._terms.items()}
            )
        if not isinstance(other, Multivector):
            raise TypeError(f"multiplier must be a Multivector, int or Fraction, not {t.__name__}")
        if self._n != other._n:
            raise DimensionMismatchError(f"mixing Cl(0,{self._n}) with Cl(0,{other._n})")
        return Multivector._over(
            self._n, self._d * other._d, integer_product(self._terms.items(), other._terms.items())
        )

    def __rmul__(self, other: Scalar) -> "Multivector":
        return self * other  # scalars commute; __mul__ rejects anything else

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Multivector)
            and self._n == other._n
            and self._d == other._d
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self._n, self._d, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return f"Multivector({self._n}, 0)"
        parts = []
        for mask in sorted(self._terms):
            c = Fraction(self._terms[mask], self._d)
            name = "1" if mask == 0 else "".join(f"e{i}" for i in range(self._n) if mask >> i & 1)
            parts.append(f"{c}*{name}" if mask else f"{c}")
        return f"Multivector({self._n}, {' + '.join(parts)})"

    # -- structure maps ----------------------------------------------------

    def grades(self) -> set[int]:
        return {blade_grade(m) for m in self._terms}

    def scalar_part(self) -> Fraction:
        return Fraction(self._terms.get(0, 0), self._d)

    def grade_involution(self) -> "Multivector":
        """Blade of grade k scaled by (-1)^k; splits Cl into even/odd parts."""
        return Multivector._over(
            self._n, self._d, {m: -c if blade_grade(m) & 1 else c for m, c in self._terms.items()}
        )

    def reverse(self) -> "Multivector":
        """Anti-automorphism scaling a grade-k blade by (-1)^(k(k-1)/2)."""
        terms = {}
        for m, c in self._terms.items():
            k = blade_grade(m)
            terms[m] = -c if (k * (k - 1) // 2) & 1 else c
        return Multivector._over(self._n, self._d, terms)


def integer_product(a: Iterable[tuple[int, int]], b: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Blade -> integer coefficient of the product of two elements given as
    (mask, integer coefficient) pairs.  Coefficients that cancel stay as 0."""
    b = list(b)
    acc: dict[int, int] = {}
    for ma, ca in a:
        signs = SIGN_MASKS[ma]
        for mb, cb in b:
            m = ma ^ mb
            if PARITY[mb & signs]:
                acc[m] = acc.get(m, 0) - ca * cb
            else:
                acc[m] = acc.get(m, 0) + ca * cb
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
    if a._n >= MAX_GENERATORS:
        raise UnsupportedDimensionError(f"cannot extend past {MAX_GENERATORS} generators")
    return Multivector._over(
        a._n + 1, a._d, {(mask << 1) | (mask.bit_count() & 1): c for mask, c in a._terms.items()}
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
