"""Spin(n) inside the even Clifford algebra: conjugation action, reflections,
and constructive lifting between SO(n) and Spin(n).

A spin element is an even multivector zeta with zeta * reverse(zeta) = 1
whose conjugation preserves grade one.  On its exact form zeta = Z/d
(numerators c_S in ``terms`` over ``d``) let rows k of X and Y hold the
numerators of Z e_k and of e_k Z over the blades B they reach.  Column j of
Ad(zeta), the grade-1 part v_j of zeta e_j reverse(zeta), is row j of V over
d^2: Ad(zeta)_ij = <e_i Z, Z e_j> / d^2 with <a, b> = sum_B (-1)^(|B|+1) a_B b_B,
since reverse(Z) e_i = reverse(e_i Z), the e_i coefficient of an element u
is minus the scalar part of u e_i, and that of a reverse(b) is
sum_B (-1)^|B| a_B b_B.  An even Z reaches only odd blades B, on which the
sign is +1, so V = X Y^T, summed over blade pairs rather than as n^2 dot
products: V_jk = sum_m s_jk(m) c_m c_m' over even m, m' = m ^ e_j ^ e_k,
where e_m e_j = s_jk(m) e_k e_m' (the signs of X's and Y's entries).
Multiplying by e_k^{-1} on the left and e_j^{-1} on the right gives
e_m' e_j = s_jk(m) e_k e_m, so s_jk(m') = s_jk(m), and for j != k each
pair {m, m'} is one product c_m c_m' that feeds both V_jk and V_kj with
weight 2 s_jk(m) and 2 s_kj(m).  The diagonal V_jj needs only the squares.

The grade-1 check is zeta e_j == v_j zeta on every blade, d^2 X == V Y: once
reverse(zeta) = zeta^{-1} the rest r_j = zeta e_j zeta^{-1} - v_j vanishes
exactly then, since (v_j + r_j) zeta = zeta e_j.  It is checked as one
integer identity.  Rows k of X and Y are the images of the coefficient
vector z of Z under right and left multiplication R_k, L_k by e_k.  On the
blade basis each is a signed permutation, orthogonal and skew, since
e_k^{-1} = -e_k.  For k != l, R_k^T R_l = -R_k R_l and L_k^T L_l = -L_k L_l
multiply by the bivectors -e_l e_k and -e_k e_l, which square to -1, so they
are skew as well, and z^T A z = 0 for a skew A.  Hence X X^T = Y Y^T = s I
with s = sum c_S^2, and with X Y^T = V

    |d^2 X - V Y|_F^2 = n s d^4 - 2 d^2 |V|_F^2 + s |V|_F^2.

Validation checks s = d^2 first, and then this integer is
d^2 (n d^4 - |V|_F^2).  A sum of squares of integers is 0 exactly when
every term is, so |V|_F^2 == n d^4 exactly when d^2 X == V Y: the same
check, made exactly.  ``SpinElement(value)`` is the only way a spin element
is built, products and negatives included: it always certifies its value and
keeps the columns for ``adjoint_action``.

The grade-1 check also certifies the unit norm, so validation never forms
the dense product zeta * reverse(zeta).  For an even zeta = sum c_S e_S the
scalar part of zeta * reverse(zeta), and of reverse(zeta) * zeta, is
sum c_S^2, since e_S reverse(e_S) = (-1)^|S| = 1 for even |S| and blades
S != T contribute no scalar.  Validation checks that this scalar part is 1
on the integer numerators first, then runs the grade-1 check.  If
zeta e_j = v_j zeta holds for vectors v_j, reversing gives
e_j reverse(zeta) = reverse(zeta) v_j, so M = reverse(zeta) * zeta
satisfies M e_j = reverse(zeta) v_j zeta = e_j M for every j.  M commutes
with every generator, so it is central.  The centre of Cl(0,n) is the
scalars, plus the pseudoscalar when n is odd, whose grade n is then odd;
M is even, so it is a scalar, and that scalar is its scalar part
sum c_S^2 = 1.  A left inverse in a finite-dimensional algebra is
two-sided, so zeta * reverse(zeta) = 1 as well.  The dense product is
formed only when the grade-1 check fails, to tell the two rejection
messages apart.

Lifting a rotation reads the integer columns of its exact ``(d, rows)``
form and reflects them by primitive integer factors v:
x -> (v.v) x - 2 (v.x) v, each column then reduced by its gcd.  It works
over the rationals whenever the product of the squared lengths of the factors is a square (always the case for
rotations arising as Ad- or spin-representation images of rational spin
elements); otherwise no rational lift exists and ``lift_rotation`` raises.
Lifts, Lie lifts and random unit vectors are built in the same form, over
the root of that product, over 2d and over the reflection's denominator.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import cache
from itertools import combinations, compress
from math import gcd, isqrt
from operator import mul

from . import exactlinalg as la
from .errors import Frozen, InvalidSpinElementError, LiftError, require
from .multivector import PARITY, SIGN_MASKS, Multivector, blade_grade, integer_product

_NORM_MESSAGE = "spin element must satisfy zeta * reverse(zeta) = 1"


class _Matrix(Frozen):
    """A square matrix ``entries``, held as ``exactlinalg.exact`` reduces it
    and checked by the subclass's ``__post_init__``."""

    _fields = __slots__ = ("entries",)

    def __init__(self, entries: la.Exact):
        object.__setattr__(self, "entries", la.exact(*entries))
        self.__post_init__()

    @property
    def n(self) -> int:
        return len(self.entries[1])


class RotationMatrix(_Matrix):
    """Element of SO(n), given as ``(d, rows)`` with int or Fraction entries
    and held as ``exactlinalg.exact`` reduces it.  The checks run on the
    integers: rows^T rows = d^2 I and det(rows) = d^n."""

    __slots__ = ()

    def __post_init__(self):
        d, a = self.entries
        if not a:
            raise ValueError("rotation matrix must be at least 1x1")
        d2_identity = tuple(tuple(d * d * x for x in row) for row in la.identity(len(a)))
        if la.mat_mul(la.transpose(a), a) != d2_identity:
            raise ValueError("matrix is not orthogonal")
        if la.det(a) != d ** len(a):
            raise ValueError("matrix has determinant != +1")


class SkewMatrix(_Matrix):
    """Skew-symmetric matrix (an element of so(n)), given and held like
    :class:`RotationMatrix`."""

    __slots__ = ()

    def __post_init__(self):
        a = self.entries[1]
        if la.transpose(a) != tuple(tuple(-x for x in row) for row in a):
            raise ValueError("matrix is not skew-symmetric")


class SpinElement:
    """Point of Spin(n): an even multivector of unit norm, certified on
    construction and compared by identity; ``value`` is read-only."""

    __slots__ = ("_value", "_columns")

    def __init__(self, value: Multivector):
        require(value, Multivector, "spin element value")
        self._value = value
        self._validate()

    @property
    def value(self) -> Multivector:
        return self._value

    def _validate(self) -> None:
        if any(map(PARITY.__getitem__, self._value.terms)):
            raise InvalidSpinElementError("spin element must be even")
        # sum c_S^2, the scalar part of zeta * reverse(zeta), on the numerators
        if sum(c * c for c in self._value.terms.values()) != self._value.d ** 2:
            raise InvalidSpinElementError(_NORM_MESSAGE)
        # the grade-1 certificate proves zeta * reverse(zeta) = 1 (module
        # docstring); on failure the dense product picks the message
        try:
            self._columns = _conjugated_basis(self._value)
        except InvalidSpinElementError:
            if self._value * self._value.reverse() != Multivector.scalar(self._value.n, 1):
                raise InvalidSpinElementError(_NORM_MESSAGE) from None
            raise

    def __mul__(self, other: "SpinElement") -> "SpinElement":
        return SpinElement(self._value * other._value)

    def __neg__(self) -> "SpinElement":
        return SpinElement(-self._value)

    def __repr__(self) -> str:
        return f"SpinElement({self._value!r})"


def _odd(a: int, b: int) -> int:
    """1 when e_a e_b = -e_(a ^ b), read off ``SIGN_MASKS`` as ``integer_product`` does."""
    return PARITY[b & SIGN_MASKS[a]]


@cache
def _pair_tables(n: int) -> tuple:
    """For ``_conjugated_basis`` on Cl(0,n), built on first use: the even blades
    in order of grade; selectors of those with s_jj = -1; and per j < k the pairs
    {m, m ^ e_j ^ e_k} as (firsts, seconds) index tuples in four groups, by
    (s_jk, s_kj) = (+, +), (+, -), (-, +), (-, -) (module docstring), each in
    order of the larger grade of its pair.  Each ordered tuple comes with its
    ends: ends[g] counts its leading entries with no blade above grade g."""
    even = tuple(sorted((m for m in range(1 << n) if not m.bit_count() & 1), key=int.bit_count))
    minus = tuple(tuple(_odd(m, 1 << j) ^ _odd(1 << j, m) for m in even) for j in range(n))
    blocks = []
    for j, k in combinations(range(n), 2):
        ej, ek, groups = 1 << j, 1 << k, ([], [], [], [])
        for m in even:
            if m < (pair := m ^ ej ^ ek):
                groups[2 * (_odd(m, ej) ^ _odd(ek, pair)) + (_odd(m, ek) ^ _odd(ej, pair))].append(m)
        tables = []
        for g in groups:
            ordered = sorted((max(m.bit_count(), (m ^ ej ^ ek).bit_count()), m) for m in g)
            firsts = tuple(m for _, m in ordered)
            tables.append((firsts, tuple(m ^ ej ^ ek for m in firsts), _ends([t for t, _ in ordered], n)))
        blocks.append((j, k, tuple(tables)))
    return (even, _ends([m.bit_count() for m in even], n)), minus, tuple(blocks)


def _ends(grades: list[int], n: int) -> tuple[int, ...]:
    """ends[g] for g = 0..n: how many of the nondecreasing ``grades`` are at most g."""
    return tuple(bisect_right(grades, g) for g in range(n + 1))


def _conjugated_basis(zeta: Multivector) -> tuple[int, la.Rows]:
    """``(d^2, cols)`` for an even zeta = Z / d with sum c_S^2 = d^2:
    cols[j] / d^2 are the components of the grade-1 part v_j of
    zeta e_j reverse(zeta), the rows of V = X Y^T, summed from the squares
    of the even blades and one product per blade pair (module docstring).
    Only blades up to zeta's top grade are read: any square or pair with a
    blade above it has a zero factor, so the cost follows the top grade,
    from one square for a scalar to 1920 products for a dense Spin(8)
    element.

    Raises InvalidSpinElementError unless every image is a vector, that is
    unless d^2 X == V Y, checked as the one integer identity
    |V|^2 == n d^4.  A passing check proves reverse(zeta) = zeta^{-1}, so
    the images are the columns of Ad(zeta).
    """
    n, dd = zeta.n, zeta.d * zeta.d
    (even, reach), minus, blocks = _pair_tables(n)
    # a square or pair with a blade above zeta's top grade has a zero factor
    top = max(map(int.bit_count, zeta.terms), default=0)
    coefficients = [0] * (1 << n)
    for m, c in zeta.terms.items():
        coefficients[m] = c
    get = coefficients.__getitem__
    squares = [c * c for c in map(get, even[: reach[top]])]
    s = sum(squares)
    v = [[0] * n for _ in range(n)]
    for j, sel in enumerate(minus):
        v[j][j] = s - 2 * sum(compress(squares, sel))
    for j, k, groups in blocks if top > 1 else ():  # a pair's larger grade is at least 2
        pp, pm, mp, mm = [
            sum(map(mul, map(get, firsts[: ends[top]]), map(get, seconds))) for firsts, seconds, ends in groups
        ]
        v[j][k], v[k][j] = 2 * (pp + pm - mp - mm), 2 * (pp - pm + mp - mm)
    if sum(x * x for row in v for x in row) != n * dd * dd:
        raise InvalidSpinElementError("conjugation does not preserve grade 1")
    return dd, tuple(map(tuple, v))


def adjoint_action(zeta: SpinElement) -> RotationMatrix:
    """The rotation x -> zeta x zeta^{-1} of R^n (the two-to-one cover map)."""
    require(zeta, SpinElement, "spin element")
    dd, cols = zeta._columns
    return RotationMatrix((dd, la.transpose(cols)))


def reflect(v: Multivector, x: Multivector) -> Multivector:
    """Reflection -v x v^{-1} of the vector x across the hyperplane v-perp."""
    if v.grades() != {1}:
        raise ValueError("reflection axis must be grade-1")
    if (v * v) != Multivector.scalar(v.n, -1):
        raise InvalidSpinElementError("reflection axis must be a unit vector")
    if x.grades() not in ({1}, set()):
        raise ValueError("can only reflect grade-1 elements")
    # v^{-1} = -v for unit v, so -v x v^{-1} = v x v
    return v * x * v


def _reflect_column(v: list[int], vv: int, x: list[int], d: int) -> tuple[int, list[int]]:
    """x/d reflected across v-perp for an integer v with vv = v.v, in lowest
    terms as (denominator, numerators)."""
    f = 2 * sum(map(mul, v, x))
    out = [vv * xi - f * vi for xi, vi in zip(x, v)]
    g = gcd(vv * d, *out)
    return vv * d // g, [xi // g for xi in out]


def lift_rotation(rotation: RotationMatrix) -> SpinElement:
    """Constructive Cartan-Dieudonne lift of R in SO(n) to Spin(n).

    Peels one column at a time with a primitive integer reflection vector,
    multiplies the factors on integer numerators and rescales by the exact
    square root of the accumulated norm.  The result satisfies
    adjoint_action(zeta) == R and is sign-canonicalized so that its first
    nonzero coefficient in ascending blade order is positive.
    """
    require(rotation, RotationMatrix, "rotation")
    n = rotation.n
    # the peeled columns 0..j-1 are e_0..e_(j-1), orthogonal to every later
    # factor, so only the columns after j are reflected
    d, rows = rotation.entries
    cols = [(d, list(col)) for col in la.transpose(rows)]
    product = {0: 1}
    count, norm_sq = 0, 1
    for j in range(n):
        d, v = cols[j]
        v[j] -= d
        if not any(v):
            continue
        g = gcd(*v)
        v = [x // g for x in v]
        vv = sum(x * x for x in v)
        count += 1
        norm_sq *= vv
        product = integer_product(product.items(), [(1 << i, x) for i, x in enumerate(v) if x])
        cols[j + 1 :] = [_reflect_column(v, vv, x, dx) for dx, x in cols[j + 1 :]]
    if count % 2:
        raise LiftError("odd reflection count: input is orientation-reversing")
    scale = isqrt(norm_sq)
    if scale * scale != norm_sq:
        raise LiftError("rotation has no rational spin lift (spinor norm is not a square)")
    zeta = Multivector._over(n, scale, product)

    first = min(zeta.terms) if zeta.terms else 0
    if zeta.terms and zeta.terms[first] < 0:
        zeta = -zeta
    return SpinElement(zeta)


def lie_lift(a: SkewMatrix) -> Multivector:
    """The bivector B with d(Ad)(B) = a, where d(Ad)(B)x = Bx - xB.

    For column action (a x)_i = sum_j a_ij x_j and the e_i^2 = -1 metric
    this is B = (1/4) sum_ij a_ij e_j e_i.  SkewMatrix has certified
    a_ji = -a_ij, and e_j e_i = -e_i e_j for i != j, so the terms of i, j
    and j, i are equal: B = -sum_{i<j} a_ij e_i e_j / 2, read off the
    strict upper triangle alone.
    """
    d, rows = a.entries
    terms = {(1 << i) | (1 << j): -rows[i][j] for i, j in combinations(range(a.n), 2)}
    return Multivector._over(a.n, 2 * d, terms)


def ad_differential(b: Multivector) -> SkewMatrix:
    """Matrix of x -> b x - x b on grade-1 elements (inverse of lie_lift),
    its column j the integer numerators of b e_j - e_j b over those of b,
    one pass over b's terms: e_m e_j and e_j e_m differ only in sign, so a
    term c e_m adds -2 (odd(m, e_j) - odd(e_j, m)) c at the blade m ^ e_j,
    which no other term reaches."""
    n = b.n
    terms = b.terms.items()
    cols = []
    for j in range(n):
        ej, col = 1 << j, [0] * n
        for m, c in terms:
            if x := 2 * (_odd(ej, m) - _odd(m, ej)) * c:
                blade = m ^ ej
                if blade_grade(blade) != 1:
                    raise ValueError("commutator does not preserve grade 1")
                col[blade.bit_length() - 1] = x
        cols.append(col)
    return SkewMatrix((b.d, la.transpose(cols)))


def rational_unit_tuple(n: int, rng: random.Random) -> tuple[int, tuple[int, ...]]:
    """Deterministic-in-rng unit vector with rational coordinates, as the
    exact pair ``(d, numerators)``.

    Reflects a coordinate vector across a random integer hyperplane, which
    parametrizes rational points of the sphere without any square roots.
    """
    while True:
        w = [rng.randint(-9, 9) for _ in range(n)]
        if any(w):
            break
    axis = rng.randrange(n)
    e = [1 if i == axis else 0 for i in range(n)]
    d, xs = _reflect_column(w, sum(x * x for x in w), e, 1)
    return d, tuple(xs)


def rational_unit_vector(n: int, rng: random.Random) -> Multivector:
    """Grade-1 multivector wrapper around :func:`rational_unit_tuple`."""
    d, xs = rational_unit_tuple(n, rng)
    return Multivector._over(n, d, {1 << i: x for i, x in enumerate(xs)})


def random_spin(n: int, k: int, seed: int) -> SpinElement:
    """Product of 2k seeded pseudo-random rational unit vectors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = random.Random(seed)
    product = Multivector.scalar(n, 1)
    for _ in range(2 * k):
        product = product * rational_unit_vector(n, rng)
    return SpinElement(product)
