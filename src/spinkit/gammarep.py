"""The irreducible real Cl(0,8) module and the two Spin(7) embeddings.

The concrete model is octonion left multiplication on O + O:

    c(v)(x, y) = (v * y, -conj(v) * x),

with octonion products read off a fixed Fano-plane table.  All eight gamma
matrices are signed permutation matrices, so every monomial c(e_S) is one
too and the whole module stays in exact integer arithmetic.

The splitting S8 = S8+ + S8- is the eigenspace decomposition of c(omega8),
omega8 = e0 e1 ... e7.  In this model c(omega8) is diagonal, -1 on the
first octonion summand and +1 on the second, so S8- is the first summand
and S8+ the second, each with its coordinate basis; the orientation probe
sets the sign of the first basis vector of S8+.  The chiral action of an
even element is therefore a signed block of its 16x16 matrix.

The module has one form: the generators, the 256 monomials and the two
halves are stored as signed permutations (``GammaRep.gamma``,
``GammaRep.monomials``, ``GammaRep.halves``), and no dense copy is kept.
The actions and the ``verify reps`` checks read these same permutations.

Conjugation (Ad) and the chiral restriction of c give the two
non-conjugate copies of Spin(7) in Spin(8): ``iota_vector`` is the
blade-wise inclusion that stabilizes the vector e0, ``iota_plus`` the lift
of the 8-dimensional spin representation that stabilizes a positive unit
spinor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from . import exactlinalg as la
from .errors import (
    ChiralityError,
    DimensionMismatchError,
    EmbeddingDomainError,
    InternalCheckError,
)
from .multivector import Multivector, blade_grade, p_iso, volume_element
from .spingroup import (
    RotationMatrix,
    SkewMatrix,
    SpinElement,
    lie_lift,
    lift_rotation,
)

Matrix = la.Matrix
Vector = la.Vector

# Fano-plane triples (a, b, c): cyclically e_a e_b = e_c.  The (i, i+1, i+3)
# mod 7 orientation is one of the standard alternative-algebra conventions.
_FANO_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


def octonion_basis_product(i: int, j: int) -> tuple[int, int]:
    """(k, sign) with e_i e_j = sign * e_k for the octonion units e_0 .. e_7."""
    if i == 0:
        return j, 1
    if j == 0:
        return i, 1
    if i == j:
        return 0, -1
    for line in _FANO_LINES:
        if i in line and j in line:
            a, b = line.index(i), line.index(j)
            k = line[3 - a - b]
            return k, 1 if (b - a) % 3 == 1 else -1
    raise AssertionError("unreachable: Fano lines cover all index pairs")


# A signed permutation matrix is stored column-wise:
# M e_j = sign[j] * e_perm[j].  A chiral half is stored in the same column
# form, with 8 columns: basis spinor j is sign[j] * e_perm[j].
_SignedPerm = tuple[tuple[int, ...], tuple[int, ...]]


def sp_compose(a: _SignedPerm, b: _SignedPerm) -> _SignedPerm:
    """Matrix product a @ b (apply b first)."""
    pa, sa = a
    pb, sb = b
    return tuple(pa[pb[j]] for j in range(len(pb))), tuple(sb[j] * sa[pb[j]] for j in range(len(pb)))


def sp_identity(n: int) -> _SignedPerm:
    return tuple(range(n)), (1,) * n


def generator_relation_failure(gammas: tuple[_SignedPerm, ...]) -> tuple[int, int] | None:
    """The first pair (i, j) with i <= j, in row-major order, at which
    c(e_i) c(e_j) + c(e_j) c(e_i) != -2 delta_ij, or None when all hold.

    The sum is symmetric in i and j, so this is also the first failing pair
    of the full row-major loop.  Two signed permutations sum to zero exactly
    when they share the permutation and have opposite signs, so the
    relations are checked on the column descriptions without building a
    matrix.
    """
    n = len(gammas[0][0])
    minus_one = (tuple(range(n)), (-1,) * n)
    for i, gi in enumerate(gammas):
        if sp_compose(gi, gi) != minus_one:
            return i, i
        for j in range(i + 1, len(gammas)):
            gj = gammas[j]
            (p1, s1), (p2, s2) = sp_compose(gi, gj), sp_compose(gj, gi)
            if p1 != p2 or any(x != -y for x, y in zip(s1, s2)):
                return i, j
    return None


def _left_mult_sp(i: int) -> _SignedPerm:
    """Column description of octonion left multiplication by e_i."""
    perm, sign = [], []
    for j in range(8):
        k, s = octonion_basis_product(i, j)
        perm.append(k)
        sign.append(s)
    return tuple(perm), tuple(sign)


def _build_gamma_sp() -> list[_SignedPerm]:
    """The eight 16x16 generators in column form, acting on (x, y) in O + O."""
    gammas = []
    # c(e0)(x, y) = (y, -x)
    perm = [j + 8 for j in range(8)] + list(range(8))
    sign = [-1] * 8 + [1] * 8
    gammas.append((tuple(perm), tuple(sign)))
    for i in range(1, 8):
        lp, ls = _left_mult_sp(i)
        perm = [lp[j] + 8 for j in range(8)] + [lp[j] for j in range(8)]
        sign = list(ls) + list(ls)
        gammas.append((tuple(perm), tuple(sign)))
    return gammas


@dataclass(frozen=True)
class Spinor:
    """Element of the 16-dimensional module or of one chiral half."""

    components: Vector
    chirality: str  # "+", "-", or "full"

    def __post_init__(self):
        object.__setattr__(self, "components", la.vec(self.components))
        if self.chirality not in ("+", "-", "full"):
            raise ValueError("chirality must be '+', '-' or 'full'")
        want = 16 if self.chirality == "full" else 8
        if len(self.components) != want:
            raise DimensionMismatchError(
                f"{self.chirality} spinor needs {want} components, got {len(self.components)}"
            )

    def is_zero(self) -> bool:
        return not any(self.components)


class GammaRep:
    """The action of Cl(0,8) on R^16 with its chiral splitting."""

    def __init__(self) -> None:
        self.gamma: tuple[_SignedPerm, ...] = tuple(_build_gamma_sp())
        failure = generator_relation_failure(self.gamma)
        if failure is not None:
            i, j = failure
            raise InternalCheckError(f"generator anticommutator failed at ({i},{j})")
        self.monomials: dict[int, _SignedPerm] = {0: sp_identity(16)}
        for mask in range(1, 256):
            low = mask & -mask
            i = low.bit_length() - 1
            self.monomials[mask] = sp_compose(self.gamma[i], self.monomials[mask ^ low])
        # chirality -> (rows, signs): basis spinor j is signs[j] * e_rows[j]
        self.halves = self._split_eigenspaces()
        self._orient_positive_half()
        self._psi: Spinor | None = None

    # -- construction-time consistency checks -------------------------------

    def _split_eigenspaces(self) -> dict[str, _SignedPerm]:
        """The chiral halves, read off the signed permutation c(omega8).

        c(omega8) must be diagonal with eight +1 and eight -1 signs; each
        half is then spanned by the coordinate vectors of its sign, which
        are orthonormal by construction.
        """
        perm, sign = self.monomials[255]
        if perm != tuple(range(16)) or sign.count(1) != 8:
            raise InternalCheckError("volume element eigenspaces are not 8+8 dimensional")
        return {
            chirality: (tuple(j for j in range(16) if sign[j] == s), (1,) * 8)
            for chirality, s in (("+", 1), ("-", -1))
        }

    def _orient_positive_half(self) -> None:
        """Fix the orientation of S8+ so the spin-representation lift sends -1
        to +omega8.

        -1 = (e1 e2)^2 in the even Cl(0,7) copy, and the square of either
        preimage of a rotation is sign-unambiguous, so the test below does
        not depend on lift_rotation's sign canonicalization.  If the lift
        lands on -omega8 the orientation of S8+ is reversed by negating the
        sign of its first basis vector.
        """
        bivector = Multivector.blade(8, [1, 2])
        half_turn = chiral_action_matrix(self, bivector, "+")
        eta = lift_rotation(RotationMatrix(half_turn))
        square = (eta * eta).value
        if square == -volume_element(8):
            rows, signs = self.halves["+"]
            self.halves["+"] = rows, (-signs[0],) + signs[1:]
        elif square != volume_element(8):
            raise InternalCheckError("orientation probe did not land on +-omega8")

    # -- basic module structure ---------------------------------------------

    def fixed_spinor(self) -> Spinor:
        """The positive spinor line fixed by the spinor-type Spin(7) copy."""
        if self._psi is None:
            basis = common_fixed_space(self, spin7_lie_basis())
            if len(basis) != 1:
                raise InternalCheckError("fixed space of the spin(7) action is not a line")
            self._psi = Spinor(basis[0], "+")
        return self._psi


def build_cl8_rep() -> GammaRep:
    """Construct the representation and run its construction self-checks."""
    return GammaRep()


def action_columns(
    rep: GammaRep, a: Multivector, columns: range | tuple[int, ...]
) -> tuple[int, list[list[int]]]:
    """``(d, cols)``: cols[k] is column ``columns[k]`` of c(a) times d, as
    16 integers, where d is the common denominator of a's coefficients."""
    if a.n != 8:
        raise DimensionMismatchError("the Cl(0,8) action needs an element of Cl(0,8)")
    d, terms = a.over_common_denominator()
    cols = [[0] * 16 for _ in columns]
    for mask, c in terms:
        perm, sign = rep.monomials[mask]
        for col, j in zip(cols, columns):
            col[perm[j]] += c * sign[j]
    return d, cols


def chiral_action_matrix(rep: GammaRep, a: Multivector, chirality: str = "+") -> Matrix:
    """Matrix of c(a) restricted to one chiral half, in the half's basis.

    With basis spinor j equal to signs[j] * e_rows[j], entry (i, j) is
    signs[i] * signs[j] * c(a)[rows[i]][rows[j]].  Raises ChiralityError
    when c(a) does not preserve the half, that is when a column of the half
    has a nonzero entry in a row outside it (odd elements exchange the
    halves).  Only the half's eight columns of c(a) are built.
    """
    if chirality not in ("+", "-"):
        raise ValueError("chirality must be '+' or '-'")
    rows, signs = rep.halves[chirality]
    d, cols = action_columns(rep, a, rows)
    outside = [r for r in range(16) if r not in rows]
    if any(col[r] for col in cols for r in outside):
        raise ChiralityError("element does not preserve the chiral subspace")
    return tuple(
        tuple(Fraction(si * sj * col[ri], d) for col, sj in zip(cols, signs))
        for ri, si in zip(rows, signs)
    )


def delta8(rep: GammaRep, zeta: SpinElement, chirality: str = "+") -> Matrix:
    """Chiral spin representation of Spin(8): c(zeta) on one eigenspace."""
    if zeta.n != 8:
        raise DimensionMismatchError("delta8 needs a Spin(8) element")
    if any(blade_grade(m) & 1 for m in zeta.value.terms):
        raise ChiralityError("odd element cannot act chirally")
    return chiral_action_matrix(rep, zeta.value, chirality)


_EMBEDDED_MASK = 0b11111110  # generators 1..7 of Cl(0,8)


def embed_spin7(a: Multivector) -> Multivector:
    """Even elements of Cl(0,7) inside Cl(0,8), using generators 1..7."""
    if a.n == 7:
        if any(blade_grade(m) & 1 for m in a.terms):
            raise EmbeddingDomainError("only even elements embed blade-wise")
        return p_iso(a)
    if a.n == 8:
        if any(mask & ~_EMBEDDED_MASK for mask in a.terms) or any(
            blade_grade(m) & 1 for m in a.terms
        ):
            raise EmbeddingDomainError("element is not in the embedded even Cl(0,7)")
        return a
    raise EmbeddingDomainError("expected an element of Cl(0,7) or embedded Cl(0,8)")


def delta7(rep: GammaRep, zeta: SpinElement) -> Matrix:
    """Spin representation of Spin(7) on S8+ (does not descend to SO(7))."""
    embedded = embed_spin7(zeta.value)
    return chiral_action_matrix(rep, embedded, "+")


def iota_vector(zeta: SpinElement) -> SpinElement:
    """Blade-wise inclusion Spin(7) -> Spin(8); its rotations fix e0."""
    return SpinElement(embed_spin7(zeta.value), check=False)


def iota_plus(rep: GammaRep, zeta: SpinElement) -> SpinElement:
    """The lift of delta7 through the conjugation cover of SO(8).

    Among the two preimages of the rotation delta7(zeta) the one acting
    trivially on the fixed spinor psi is returned; this choice makes the
    map a homomorphism and sends -1 to the volume element omega8.
    """
    rotation = RotationMatrix(delta7(rep, zeta))
    eta = lift_rotation(rotation)
    psi = rep.fixed_spinor().components
    image = la.mat_vec(delta8(rep, eta, "+"), psi)
    if image == psi:
        return eta
    if image == tuple(-x for x in psi):
        return -eta
    raise InternalCheckError("candidate lift moves the fixed spinor line")


def spin7_lie_basis() -> list[Multivector]:
    """The 21 bivectors e_i e_j of so(7), in the algebra's own labels."""
    return [Multivector.blade(7, [i, j]) for i, j in combinations(range(7), 2)]


def embedded_spin7_lie_basis() -> list[Multivector]:
    """The same basis pushed into Cl(0,8) (indices shifted to 1..7)."""
    return [Multivector.blade(8, [i, j]) for i, j in combinations(range(1, 8), 2)]


def spin8_lie_basis() -> list[Multivector]:
    """All 28 bivectors e_i e_j of so(8)."""
    return [Multivector.blade(8, [i, j]) for i, j in combinations(range(8), 2)]


_BIVECTOR_MASKS = [(1 << i) | (1 << j) for i, j in combinations(range(8), 2)]


def bivector_coordinates(a: Multivector) -> Vector:
    """Coordinates of a Cl(0,8) bivector in the fixed e_i e_j basis."""
    if a.n != 8 or a.grades() not in ({2}, set()):
        raise ValueError("expected a bivector in Cl(0,8)")
    return tuple(a.terms.get(mask, Fraction(0)) for mask in _BIVECTOR_MASKS)


def d_delta7(rep: GammaRep, x: Multivector) -> Matrix:
    """Differential of delta7: the skew 8x8 chiral action of a so(7) element."""
    return chiral_action_matrix(rep, embed_spin7(x), "+")


def d_iota_plus(rep: GammaRep, x: Multivector) -> Multivector:
    """Differential of iota_plus: the so(8) bivector with d(Ad) image d_delta7(x)."""
    return lie_lift(SkewMatrix(d_delta7(rep, x)))


def _normalize_line(v: Vector) -> Vector:
    """Scale a rational vector to primitive integers with positive lead."""
    den = lcm(*(c.denominator for c in v)) if any(v) else 1
    ints = [int(c * den) for c in v]
    g = gcd(*ints) if any(ints) else 1
    ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return la.vec(ints)


def common_fixed_space(rep: GammaRep, generators: list[Multivector]) -> list[Vector]:
    """Joint kernel in S8+ of the spinor-embedding images of so(7) elements.

    Each generator x is mapped to d_iota_plus(x) and acts chirally; the
    exact intersection of the kernels is returned as a list of basis
    vectors (primitive-integer normalized).  An empty generator list
    imposes no condition and yields the full 8-dimensional space.
    """
    stacked: list[Vector] = []
    for x in generators:
        action = chiral_action_matrix(rep, d_iota_plus(rep, x), "+")
        stacked.extend(action)
    if not stacked:
        return [tuple(row) for row in la.identity(8)]
    return [_normalize_line(v) for v in la.kernel_basis(tuple(stacked))]


def stabilizer_dimension(
    rep: GammaRep, psi: Spinor, algebra: list[Multivector] | None = None
) -> int:
    """Dimension of the annihilator of psi inside a Lie subalgebra of so(8).

    ``algebra`` is a linearly independent list of bivectors acting through
    the chiral representation; the default is the full 28-dimensional
    bivector basis.
    """
    if psi.chirality != "+":
        raise ChiralityError("stabilizer is computed for positive-chirality spinors")
    if psi.is_zero():
        raise ValueError("stabilizer of the zero spinor is not defined")
    basis = algebra if algebra is not None else spin8_lie_basis()
    coords = la.mat([bivector_coordinates(x) for x in basis])
    if la.rank(coords) != len(basis):
        raise ValueError("algebra basis must be linearly independent")
    images = la.mat(
        [la.mat_vec(chiral_action_matrix(rep, x, "+"), psi.components) for x in basis]
    )
    return len(basis) - la.rank(images)


def g2_intersection_basis(rep: GammaRep) -> list[Multivector]:
    """A basis of the intersection of the two so(7) copies, as Cl(0,8) bivectors.

    Its length is the dimension of the intersection.  The two copies are
    given by their 21x28 so(8) coordinates, and ``la.intersection_basis``
    raises unless each has 21 independent rows.
    """
    vector_side = la.mat([bivector_coordinates(x) for x in embedded_spin7_lie_basis()])
    spinor_side = la.mat([bivector_coordinates(d_iota_plus(rep, x)) for x in spin7_lie_basis()])
    out = []
    for coords in la.intersection_basis(vector_side, spinor_side):
        terms = {mask: c for mask, c in zip(_BIVECTOR_MASKS, coords) if c}
        out.append(Multivector(8, terms))
    return out


def monomial_span_rank(rep: GammaRep) -> int:
    """Rank over Q of the 256 monomial matrices c(e_A).

    It is the rank of their integer trace Gram matrix tr(c(e_A)^T c(e_B)),
    since over Q a Gram matrix has the rank of its vectors; a return value
    of 256 is an exact witness that the monomials span the whole
    256-dimensional matrix space.  For signed permutations the trace sums
    the sign products over the columns that both send to the same row, so
    the Gram matrix is accumulated over (column, row) buckets and ranked
    as integers.
    """
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for mask in range(256):
        perm, sign = rep.monomials[mask]
        for j in range(16):
            buckets.setdefault((j, perm[j]), []).append((mask, sign[j]))
    gram = [[0] * 256 for _ in range(256)]
    for members in buckets.values():
        for a, sa in members:
            row = gram[a]
            for b, sb in members:
                row[b] += sa * sb
    return la.rank(gram)


def omega8_element() -> SpinElement:
    """The oriented volume element as a point of Spin(8)."""
    return SpinElement(volume_element(8), check=False)


# public names of the module: the representation, its embeddings and checks
__all__ = [
    "GammaRep",
    "Spinor",
    "build_cl8_rep",
    "action_columns",
    "chiral_action_matrix",
    "delta8",
    "delta7",
    "embed_spin7",
    "iota_plus",
    "iota_vector",
    "common_fixed_space",
    "stabilizer_dimension",
    "g2_intersection_basis",
    "spin7_lie_basis",
    "embedded_spin7_lie_basis",
    "spin8_lie_basis",
    "bivector_coordinates",
    "d_delta7",
    "d_iota_plus",
    "monomial_span_rank",
    "omega8_element",
    "octonion_basis_product",
    "generator_relation_failure",
    "sp_compose",
    "sp_identity",
]
