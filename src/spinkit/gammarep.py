"""The irreducible real Cl(0,8) module and the two Spin(7) embeddings.

The concrete model is octonion left multiplication on O + O:

    c(v)(x, y) = (v * y, -conj(v) * x),

with octonion products read off a fixed Fano-plane table.  All eight gamma
matrices are signed permutation matrices, so every monomial c(e_S) is one
too and the whole module stays in exact integer arithmetic.

The splitting S8 = S8+ + S8- is the eigenspace decomposition of c(omega8),
omega8 = e0 e1 ... e7.  In this model c(omega8) is diagonal, -1 on the
first octonion summand and +1 on the second, so S8- is the first summand
and S8+ the second, each with its coordinate basis, except that the first
basis vector of S8+ is -e8: that orientation puts the spinor fixed by the
spinor-type Spin(7) copy into S8+, where it is basis spinor 0 (the reversed
orientation puts it into S8-).  Even elements preserve each half and odd
ones exchange them, so c(a) is applied on the halves alone, by the one
kernel ``half_images``: integer rows of width 8 in the basis of a half, each
term moving their nonzero entries by its signed permutation, read in the
basis of a half over the common denominator d of a's coefficients.
``chiral_action_matrix`` is its images of the 8 basis spinors as an exact
``(d, rows)`` pair of ``exactlinalg``: the half-spin representation delta8
on Spin(8) and, after ``embed_spin7``, ``delta7`` on Spin(7) and on its Lie
algebra alike.  Stabilizer dimensions of positive spinors have one entry
point, ``stabilizer_dimensions``: one kernel call per algebra element
with all its spinors, the algebra proved independent once and the
unreduced images ranked, since a rank ignores the scale of each row.

The module has one form: the 256 monomials and the two halves are stored
as signed permutations (``GammaRep.monomials``, ``GammaRep.halves``), and
no dense or second copy is kept: generator i is ``monomials[1 << i]``.
The actions and the ``verify reps`` checks read these same permutations.
The span of the monomials is ranked block by block: a flattened c(e_A) is
nonzero only at the positions (perm[j], j), and rank over Q adds up over
groups of rows whose column supports are disjoint.

Conjugation (Ad) and the chiral restriction of c give the two
non-conjugate copies of Spin(7) in Spin(8): ``iota_vector`` is the
blade-wise inclusion that stabilizes the vector e0, ``iota_plus`` the lift
of the 8-dimensional spin representation that stabilizes a positive unit
spinor, read off c of the lift as traces against the monomials.  Each
trace is read from the 16x16 matrix flattened once: a monomial's positions
are grouped by sign value (``GammaRep._read_out``, built on the first lift),
and each group's index sum is scaled by its sign once.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations
from operator import itemgetter, mul
from typing import Sequence

from . import exactlinalg as la
from .errors import (
    ChiralityError,
    DimensionMismatchError,
    EmbeddingDomainError,
    InternalCheckError,
    InvalidSpinElementError,
    require,
    row_width,
)
from .multivector import Multivector, blade_grade, p_iso
from .spingroup import SkewMatrix, SpinElement, lie_lift

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


class GammaRep:
    """The action of Cl(0,8) on R^16 with its chiral splitting.

    Construction builds the tables and checks nothing: each claim about them
    is one ``verify reps`` check, so a broken module reads FAIL there.
    """

    def __init__(self) -> None:
        # the generators in column form, kept only as monomials[1 << i]:
        # c(e0)(x, y) = (y, -x) and, for i > 0, c(e_i)(x, y) = (e_i y, e_i x)
        gamma = [(tuple(range(8, 16)) + tuple(range(8)), (-1,) * 8 + (1,) * 8)]
        for i in range(1, 8):
            perm, sign = zip(*(octonion_basis_product(i, j) for j in range(8)))
            gamma.append((tuple(p + 8 for p in perm) + perm, sign + sign))
        self.monomials: dict[int, _SignedPerm] = {0: sp_identity(16)}
        for mask in range(1, 256):
            low = mask & -mask
            self.monomials[mask] = sp_compose(gamma[low.bit_length() - 1], self.monomials[mask ^ low])
        # chirality -> (rows, signs): basis spinor j is signs[j] * e_rows[j]
        # (certified by the eigensplit and volume-sign checks; the orientation
        # of S8+ by the fixed-line check)
        self.halves: dict[str, _SignedPerm] = {
            "+": (tuple(range(8, 16)), (-1,) + (1,) * 7),
            "-": (tuple(range(8)), (1,) * 8),
        }
        # the positive spinor fixed by the spinor-type Spin(7) copy, as a row of
        # S8+: basis spinor 0, that is -e8 (certified by the fixed-line check)
        self.fixed_spinor: tuple[int, ...] = (1,) + (0,) * 7

    @cached_property
    def _read_out(self) -> tuple[tuple[int, ...], tuple]:
        """``(masks, reads)`` for ``iota_plus``, built from ``monomials`` on the
        first lift: the even masks, and one (mask, s, getter) per nonzero sign
        value s of each even monomial, the getter an itemgetter of that
        monomial's positions 16 j + perm[j] of sign s in a 16x16 matrix M
        flattened column by column, so sum_j sign[j] M[perm[j]][j] is the sum
        of s * sum(getter) over mask's reads.  Every getter also reads
        position 256, a zero, so it returns a tuple for any group."""
        masks, reads = [], []
        for mask, (perm, sign) in self.monomials.items():
            if blade_grade(mask) & 1:
                continue
            masks.append(mask)
            groups: dict[int, list[int]] = {}
            for j, (row, s) in enumerate(zip(perm, sign)):
                groups.setdefault(s, []).append(16 * j + row)
            reads.extend((mask, s, itemgetter(*positions, 256)) for s, positions in groups.items() if s)
        return tuple(masks), tuple(reads)


def build_cl8_rep() -> GammaRep:
    """Construct the representation; ``verify reps`` checks its claims."""
    return GammaRep()


# the 8 basis spinors of a half, as the unit rows ``half_images`` reads
BASIS_SPINORS = la.identity(8)


def half_images(
    rep: GammaRep, a: Multivector, source: str, vectors: Sequence, target: str | None = None
) -> list[list[int]]:
    """c(a) v times a.d for each integer row v of width 8 in the basis of
    half ``source``, read in the basis of half ``target`` (by default
    ``source``) as 8 integers.

    Basis spinor j is signs[j] * e_rows[j], and a term c e_A of a sends e_r
    to c sign[r] e_perm[r] (``monomials[A]``): the images of the nonzero
    entries are summed term by term into one flat accumulator, 16 entries
    per vector, and entry i of an image is the target's signs[i] times its
    entry at rows[i].  Raises ChiralityError when an image is nonzero at a
    row outside ``target``, and DimensionMismatchError when the rows fail
    ``errors.row_width`` or have another width.
    """
    target = source if target is None else target
    if source not in ("+", "-") or target not in ("+", "-"):
        raise ValueError("chirality must be '+' or '-'")
    if a.n != 8:
        raise DimensionMismatchError("the Cl(0,8) action needs an element of Cl(0,8)")
    width = row_width(vectors)
    if width not in (None, 8):
        raise DimensionMismatchError(f"a spinor of a half needs 8 entries, got {width}")
    rows, signs = rep.halves[source]
    entries = [(16 * k, rows[j], signs[j] * x) for k, v in enumerate(vectors) for j, x in enumerate(v) if x]
    flat = [0] * (16 * len(vectors))
    for mask, c in a.terms.items():
        perm, sign = rep.monomials[mask]
        for at, row, x in entries:
            flat[at + perm[row]] += c * x * sign[row]
    rows, signs = rep.halves[target]
    images = []
    for at in range(0, len(flat), 16):  # read, then clear: what is left lies outside
        images.append([s * flat[at + r] for r, s in zip(rows, signs)])
        for r in rows:
            flat[at + r] = 0
    if any(flat):
        raise ChiralityError("element does not preserve the chiral subspace")
    return images


def chiral_action_matrix(rep: GammaRep, a: Multivector, chirality: str = "+") -> la.Exact:
    """Matrix of c(a) restricted to one chiral half, in the half's basis:
    column j is the ``half_images`` image of basis spinor j.  Raises
    ChiralityError when c(a) does not preserve the half (odd elements
    exchange the halves)."""
    return la.exact(a.d, zip(*half_images(rep, a, chirality, BASIS_SPINORS)))


def embed_spin7(a: Multivector) -> Multivector:
    """Even elements of Cl(0,7) inside Cl(0,8), using generators 1..7."""
    if a.n != 7:
        raise EmbeddingDomainError(f"expected an element of Cl(0,7), got Cl(0,{a.n})")
    if any(blade_grade(m) & 1 for m in a.terms):
        raise EmbeddingDomainError("only even elements embed blade-wise")
    return p_iso(a)


def delta7(rep: GammaRep, x: Multivector) -> la.Exact:
    """c(x) on S8+ for an even x of Cl(0,7), embedded by ``embed_spin7``: the
    spin representation on a point of Spin(7) (it does not descend to SO(7)),
    its skew differential on a bivector of so(7)."""
    return chiral_action_matrix(rep, embed_spin7(x), "+")


def iota_vector(zeta: SpinElement) -> SpinElement:
    """Blade-wise inclusion Spin(7) -> Spin(8); its rotations fix e0."""
    require(zeta, SpinElement, "spin element")
    return SpinElement(embed_spin7(zeta.value))


_MOVES_PSI = "candidate lift moves the fixed spinor line"


def iota_plus(rep: GammaRep, zeta: SpinElement) -> SpinElement:
    """The lift of R = delta7(zeta) through the conjugation cover of SO(8)
    that fixes psi: a homomorphism that sends -1 to omega8.

    If c(eta) psi = psi, then c(eta) c(x) psi = c(Ad(eta) x) psi for all x,
    so with R = (d, r) c(eta) sends c(e_i) psi to sum_a r[a][i] c(e_a) psi / d
    on S8- and c(e_0) c(e_i) psi to sum_{a,b} r[a][0] r[b][i] c(e_a) c(e_b) psi
    / d^2 on S8+, all signed basis vectors of R^16 read off ``monomials``.
    The monomials are trace-orthogonal, tr(c(e_A)^T c(e_B)) = 16 delta_AB,
    so eta_A = tr(c(e_A)^T M) / 16 for each even mask A, M the matrix built;
    with M flattened column by column, the trace is the sum over A's sign
    values s of s times the sum of M's entries at A's positions of sign s
    (``_even_traces``).
    The candidate passes the full ``SpinElement`` certification and
    ``half_images`` on psi's row checks c(eta) psi = psi in integers.  R
    itself needs no check:

      M maps S8- to S8- and S8+ to S8+, so it is c of an even element: c(eta) = M;
      so a certified eta with c(eta) psi = psi has c(Ad(eta) e_i) psi = M c(e_i) psi;
      so Ad(eta) = r / d, as x -> c(x) psi is injective on vectors, and R is a rotation.

    It certifies exactly when some lift of R fixes the line of psi;
    otherwise, and when R is no rotation, psi is not one basis spinor or the
    basis vectors miss a row, the candidate moves the fixed spinor line
    (InternalCheckError).
    """
    require(zeta, SpinElement, "spin element")
    psi = rep.fixed_spinor
    rows = [row for row, x in zip(rep.halves["+"][0], psi) if x]
    if len(rows) != 1:
        raise InternalCheckError(_MOVES_PSI)
    d, r = delta7(rep, zeta.value)
    gens = [rep.monomials[1 << a] for a in range(8)]
    # minus[a] = c(e_a) u and plus[b][a] = c(e_a) c(e_b) u as (row, sign),
    # for the basis vector u at psi's row: c(eta) u = u exactly when c(eta) psi = psi
    minus = [(perm[rows[0]], sign[rows[0]]) for perm, sign in gens]
    plus = [[(perm[row], sign[row] * s) for perm, sign in gens] for row, s in minus]
    columns = {}  # row j -> column j of d^2 c(eta); a source s e_j has 1/s = s
    for i, (source, s) in enumerate(minus):
        columns[source] = column = [0] * 16
        for a, (row, sa) in enumerate(minus):
            column[row] += s * d * r[a][i] * sa
    w = [[0] * len(plus) for _ in range(16)]  # w[row][b]: w_b = sum_a r[a][0] c(e_a) c(e_b) u
    for b, products in enumerate(plus):
        for (row, sab), ra in zip(products, r):
            w[row][b] += ra[0] * sab
    for (source, s), ri in zip((row[0] for row in plus), zip(*r)):  # column i is sum_b r[b][i] w_b
        columns[source] = [s * sum(map(mul, ri, at_row)) for at_row in w]
    if len(columns) != 16:
        raise InternalCheckError(_MOVES_PSI)
    terms = _even_traces(rep, [columns[j] for j in range(16)])
    try:
        eta = SpinElement(Multivector._over(8, 16 * d * d, terms))
    except InvalidSpinElementError:
        raise InternalCheckError(_MOVES_PSI) from None
    # c(eta) psi = psi, read in integers: half_images scales by eta's denominator
    if half_images(rep, eta.value, "+", [psi]) != [[eta.value.d * x for x in psi]]:
        raise InternalCheckError(_MOVES_PSI)
    return eta


def _even_traces(rep: GammaRep, columns: list[list[int]]) -> dict[int, int]:
    """tr(c(e_A)^T M) = sum_j sign[j] M[perm[j]][j] for each even mask A, M the
    16x16 integer matrix with the given columns, read as index sums over M
    flattened column by column (``GammaRep._read_out``)."""
    flat = [*chain.from_iterable(columns), 0]  # flat[16 j + i] = M[i][j], then a zero
    masks, reads = rep._read_out
    traces = dict.fromkeys(masks, 0)
    for mask, s, get in reads:
        traces[mask] += s * sum(get(flat))
    return traces


def spin7_lie_basis() -> list[Multivector]:
    """The 21 bivectors e_i e_j of so(7), in the algebra's own labels."""
    return [Multivector.blade(7, [i, j]) for i, j in combinations(range(7), 2)]


_BIVECTOR_MASKS = [(1 << i) | (1 << j) for i, j in combinations(range(8), 2)]
# the default algebra of stabilizer_dimensions: all of so(8), whose
# coordinate rows are the 28x28 identity, so it needs no independence check
_BIVECTOR_BASIS = tuple(Multivector(8, {m: 1}) for m in _BIVECTOR_MASKS)


def bivector_coordinates(a: Multivector) -> tuple[int, ...]:
    """The 28 numerators of a Cl(0,8) bivector in the fixed e_i e_j basis,
    over its denominator ``a.d``: the coordinates up to that common scale,
    which no rank, kernel or row space reads."""
    if a.n != 8 or a.grades() not in ({2}, set()):
        raise ValueError("expected a bivector in Cl(0,8)")
    terms = a.terms  # one read-only view for all 28 lookups
    return tuple(terms.get(mask, 0) for mask in _BIVECTOR_MASKS)


def d_iota_plus(rep: GammaRep, x: Multivector) -> Multivector:
    """Differential of iota_plus, lie_lift(SkewMatrix(delta7(rep, x))): the
    so(8) bivector with d(Ad) image delta7(x)."""
    return lie_lift(SkewMatrix(delta7(rep, x)))


def common_fixed_space(rep: GammaRep, generators: list[Multivector]) -> list[tuple[int, ...]]:
    """Joint kernel in S8+ of the spinor-embedding images of so(7) elements.

    Each generator x is mapped to d_iota_plus(x) and acts chirally; the
    exact intersection of the kernels is returned as a list of basis
    vectors, primitive integers as ``la.kernel_basis`` gives them.  A
    kernel ignores each action's denominator, so the rows of c(x) times
    its denominator, the ``half_images`` columns transposed, are stacked
    as they are.  An empty generator list imposes no condition and yields
    the full 8-dimensional space.
    """
    stacked: list[tuple[int, ...]] = []
    for x in generators:
        stacked.extend(zip(*half_images(rep, d_iota_plus(rep, x), "+", BASIS_SPINORS)))
    if not stacked:
        return list(la.identity(8))
    return la.kernel_basis(stacked)


def stabilizer_dimensions(
    rep: GammaRep, rows: Sequence[Sequence], algebra: list[Multivector] | None = None
) -> list[int]:
    """Dimension of the annihilator of the positive spinor of each row in
    ``rows``, in order, inside one Lie subalgebra of so(8).

    A positive spinor is a row of eight int or Fraction entries in the basis
    of S8+, the form ``half_images`` reads.  ``algebra`` is a linearly
    independent list of bivectors acting through the chiral representation;
    the default is the full 28-dimensional bivector basis.  Every row is
    checked and the algebra proved independent once, on the call.  A
    dimension is the length of the basis minus the rank of the images
    c(x) psi: the rows pass one ``exactlinalg.exact`` call, one
    ``half_images`` call per algebra element reads its images of all the
    integer rows, without building the 8x8 block of c(x), and a rank ignores
    the scale of each row, so neither the rows' common denominator nor the
    images' is read.
    """
    for row in rows:
        if len(row) != 8:
            raise DimensionMismatchError(f"a positive spinor needs 8 components, got {len(row)}")
    _, vs = la.exact(1, rows)
    if not all(map(any, vs)):
        raise ValueError("stabilizer of the zero spinor is not defined")
    if algebra is None:
        basis = _BIVECTOR_BASIS
    else:
        basis = algebra
        if la.rank([bivector_coordinates(x) for x in basis]) != len(basis):
            raise ValueError("algebra basis must be linearly independent")
    images = [half_images(rep, x, "+", vs) for x in basis]  # images[x][k] = c(x) psi_k
    return [len(basis) - la.rank([row[k] for row in images]) for k in range(len(vs))]


def g2_intersection_basis(rep: GammaRep) -> list[Multivector]:
    """A basis of the intersection of the two so(7) copies, as Cl(0,8) bivectors.

    Its length is the dimension of the intersection.  The two copies are
    given by the integer rows of their 21x28 so(8) coordinates (a row space
    ignores the scale of each row), and ``la.intersection_basis`` raises
    unless each has 21 independent rows.
    """
    vector_side = [bivector_coordinates(embed_spin7(x)) for x in spin7_lie_basis()]
    spinor_side = [bivector_coordinates(d_iota_plus(rep, x)) for x in spin7_lie_basis()]
    out = []
    for coords in la.intersection_basis(vector_side, spinor_side):
        terms = {mask: c for mask, c in zip(_BIVECTOR_MASKS, coords) if c}
        out.append(Multivector(8, terms))
    return out


def _monomial_blocks(rep: GammaRep) -> list[list[int]]:
    """The 256 monomial masks grouped so that the flattened matrices of
    different groups have disjoint supports.

    A flattened c(e_A) is nonzero only at the positions (perm[j], j), so
    monomials that share a permutation share a support.  Each permutation
    class joins every group whose positions it meets, and those groups
    merge; in the octonion model the 16 classes of 16 meet nowhere.
    """
    classes: dict[tuple[int, ...], list[int]] = {}
    for mask in range(256):
        classes.setdefault(rep.monomials[mask][0], []).append(mask)
    owner: dict[tuple[int, int], int] = {}  # position -> id of the group holding it
    groups: dict[int, tuple[list[int], set[tuple[int, int]]]] = {}  # id -> (masks, positions)
    for gid, (perm, masks) in enumerate(classes.items()):
        positions = set(zip(perm, range(16)))
        for met in {owner[p] for p in positions if p in owner}:
            met_masks, met_positions = groups.pop(met)
            masks, positions = met_masks + masks, positions | met_positions
        groups[gid] = masks, positions
        owner.update(dict.fromkeys(positions, gid))
    return [sorted(masks) for masks, _ in groups.values()]


def _trace_gram(rep: GammaRep, masks: list[int]) -> list[list[int]]:
    """The integer trace Gram tr(c(e_A)^T c(e_B)) over A, B in ``masks``.

    The trace form is the dot product of the flattened matrices, so each
    monomial is laid out on the positions its group reaches and the Gram
    is read as dot products of those sign rows, each pair once.
    """
    index: dict[tuple[int, int], int] = {}
    for mask in masks:
        for position in zip(rep.monomials[mask][0], range(16)):
            index.setdefault(position, len(index))
    rows = []
    for mask in masks:
        perm, sign = rep.monomials[mask]
        row = [0] * len(index)
        for j, s in enumerate(sign):
            row[index[perm[j], j]] = s
        rows.append(row)
    gram = [[0] * len(rows) for _ in rows]
    for a, row in enumerate(rows):
        for b in range(a, len(rows)):
            gram[a][b] = gram[b][a] = sum(map(mul, row, rows[b]))
    return gram


def monomial_span_rank(rep: GammaRep) -> int:
    """Rank over Q of the 256 monomial matrices c(e_A).

    A return value of 256 is an exact witness that the monomials span the
    whole 256-dimensional matrix space.  Rows with disjoint column supports
    span independent subspaces, so the rank is the sum over
    ``_monomial_blocks`` of each group's rank.  A group's rank is that of
    its integer trace Gram (``_trace_gram``), since over Q a Gram matrix has
    the rank of its vectors; here that is 16 ranks of 16x16 Grams, each
    16 I.
    """
    return sum(la.rank(_trace_gram(rep, masks)) for masks in _monomial_blocks(rep))
