import random
from fractions import Fraction
from itertools import accumulate, product
from math import gcd, isqrt, lcm
from operator import getitem, mul

import pytest

import spinkit.exactlinalg as la
from spinkit.cwcomplex import CWPairComplex, Cochain, coboundary, product_with_interval
from spinkit.errors import (
    ChiralityError,
    InternalCheckError,
    InvalidSpinElementError,
    LiftError,
    TorsorError,
    row_width,
)
from spinkit.gammarep import build_cl8_rep, chiral_action_matrix, delta7, iota_plus, spin7_lie_basis
from spinkit.multivector import Multivector, blade_grade, integer_product, volume_element
from spinkit.snf import AbelianGroup, _divisibility_chain, smith_diagonal
from spinkit.spingroup import RotationMatrix, SkewMatrix, lie_lift, lift_rotation, rational_unit_vector


def fraction_view(m):
    """The rows of Fractions that an exact pair (d, rows) stands for: the
    one way from the integer form back to the view the oracles read."""
    d, rows = m
    return tuple(tuple(Fraction(x, d) for x in row) for row in rows)


def exact_reference(d, rows):
    """``exactlinalg.exact`` as one Python loop per step: the oracle for its
    C-level passes, raising the same exceptions with the same messages."""
    if type(d) is not int or d < 1:
        raise ValueError(f"denominator must be a positive int, got {d!r}")
    rows = [tuple(r) for r in rows]
    row_width(rows)
    if any(type(x) is not int for r in rows for x in r):
        bad = next((x for r in rows for x in r if type(x) not in (int, Fraction)), None)
        if bad is not None:
            raise TypeError(f"entries must be exact (int or Fraction), not {type(bad).__name__}")
        den = lcm(*(x.denominator for r in rows for x in r))
        rows = [tuple(x.numerator * (den // x.denominator) for x in r) for r in rows]
        d *= den
    g = gcd(d, *(x for r in rows for x in r))
    if g > 1:
        return d // g, tuple(tuple(x // g for x in r) for r in rows)
    return d, tuple(rows)


def fraction_random_multivector(n, rng):
    """A multivector of 4 drawn terms with Fraction coefficients p/q,
    p in -6..6 and q in 1..4, each drawn before its mask: the Fraction form
    of verify._random_multivector and its oracle."""
    terms = {}
    for _ in range(4):
        terms[rng.randrange(1 << n)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Multivector(n, terms)


def fraction_terms(a):
    """The blade -> Fraction coefficients a Multivector stands for: the one
    way from its integer numerators over a.d back to the view the oracles
    read."""
    return {mask: Fraction(c, a.d) for mask, c in a.terms.items()}


def rank_mod_p(rows, p):
    """Rank of an integer matrix over the field Z/p (p prime): the mod-p oracle.

    Reduction mod p can only lower the rank, so over Z/p the result is at
    most the rank over Q.
    """
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def swap_count_blade_product(a, b):
    """(mask, sign) with e_a e_b = sign e_mask, counting transpositions
    shift by shift: the oracle for the sign table of the product."""
    swaps = 0
    x = a >> 1
    while x:
        swaps += (x & b).bit_count()
        x >>= 1
    sign = -1 if swaps & 1 else 1
    if (a & b).bit_count() & 1:
        sign = -sign
    return a ^ b, sign


def fraction_mul(a, b):
    """a * b accumulated term by term in Fractions: the oracle for
    Multivector.__mul__.  Returns the blade -> Fraction dict."""
    assert a.n == b.n
    terms = {}
    for ma, ca in fraction_terms(a).items():
        for mb, cb in fraction_terms(b).items():
            mask, sign = swap_count_blade_product(ma, mb)
            acc = terms.get(mask, Fraction(0)) + sign * ca * cb
            if acc:
                terms[mask] = acc
            else:
                terms.pop(mask, None)
    return terms


def fraction_adjoint_action(value):
    """The matrix of x -> zeta x reverse(zeta) from the full Fraction products
    zeta e_j reverse(zeta): the oracle for adjoint_action.  Raises
    InvalidSpinElementError when an image is not a vector."""
    n = value.n
    inv = value.reverse()
    cols = []
    for j in range(n):
        moved = Multivector(n, fraction_mul(value, Multivector.basis_vector(n, j)))
        image = fraction_mul(moved, inv)
        if any(mask.bit_count() != 1 for mask in image):
            raise InvalidSpinElementError("conjugation does not preserve grade 1")
        cols.append([image.get(1 << i, Fraction(0)) for i in range(n)])
    return la.transpose(cols)


def fraction_spin_validate(value):
    """The SpinElement checks on Fraction products: evenness,
    zeta * reverse(zeta) = 1 and a vector image of every e_j under
    conjugation.  The oracle for SpinElement validation."""
    if any(mask.bit_count() & 1 for mask in value.terms):
        raise InvalidSpinElementError("spin element must be even")
    if fraction_mul(value, value.reverse()) != {0: Fraction(1)}:
        raise InvalidSpinElementError("spin element must satisfy zeta * reverse(zeta) = 1")
    fraction_adjoint_action(value)


def integer_vector_part(n, a, b):
    """The n grade-1 coefficients of a * b, computing only those blades, for
    a given as (mask, integer coefficient) pairs and b as a blade -> integer
    coefficient map, with signs from swap_count_blade_product."""
    acc = [0] * n
    for ma, ca in a:
        for i in range(n):
            cb = b.get(ma ^ (1 << i))
            if cb is not None:
                acc[i] += swap_count_blade_product(ma, ma ^ (1 << i))[1] * ca * cb
    return acc


def loop_conjugated_basis(zeta):
    """``(d^2, cols)`` blade by blade, for zeta = Z / d: for each j the
    grade-1 part v_j of (Z e_j) reverse(Z) over d^2, then the check
    v_j Z == d^2 (Z e_j) on every blade.  The oracle for
    spingroup._conjugated_basis."""
    z = zeta.terms.items()
    inv = zeta.reverse().terms
    dd = zeta.d * zeta.d
    cols = []
    for j in range(zeta.n):
        moved = integer_product(z, [(1 << j, 1)])
        v = integer_vector_part(zeta.n, moved.items(), inv)
        image = integer_product([(1 << i, c) for i, c in enumerate(v) if c], z)
        if {m: c for m, c in image.items() if c} != {m: dd * c for m, c in moved.items()}:
            raise InvalidSpinElementError("conjugation does not preserve grade 1")
        cols.append(v)
    return dd, cols


def one_sided_product_rows(zeta):
    """X and Y of spingroup's module docstring from integer_product: rows k
    hold the numerators of Z e_k and of e_k Z, zeta = Z / d, on every blade
    either reaches, in one order.  The rows the Gram lemma
    X X^T = Y Y^T = (sum c_S^2) I is checked on."""
    z = zeta.terms.items()
    right = [integer_product(z, [(1 << k, 1)]) for k in range(zeta.n)]
    left = [integer_product([(1 << k, 1)], z) for k in range(zeta.n)]
    blades = sorted({m for row in right + left for m in row})
    return tuple(
        tuple(tuple(row.get(m, 0) for m in blades) for row in rows) for rows in (right, left)
    )


def fraction_mat_mul(a, b):
    """Row-by-column sums of Fraction products: the oracle for la.mat_mul
    and for a product of exact pairs."""
    bt = la.transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def first_failing_anticommutator(gamma):
    """"pair (i,j)" for the first of all 64 pairs, in row-major order, with
    gamma_i gamma_j + gamma_j gamma_i != -2 delta_ij I, or None: the oracle
    for the reps anticommutator check, which visits only i <= j."""
    size = len(gamma[0])
    for i, j in product(range(len(gamma)), repeat=2):
        gij, gji = fraction_mat_mul(gamma[i], gamma[j]), fraction_mat_mul(gamma[j], gamma[i])
        want = -2 if i == j else 0
        if any(
            gij[r][c] + gji[r][c] != (want if r == c else 0)
            for r in range(size)
            for c in range(size)
        ):
            return f"pair ({i},{j})"
    return None


def fraction_mat_vec(a, v):
    """Row sums of Fraction products: the oracle for a matrix applied to a
    vector, which the package writes as a one-row la.mat_mul."""
    return tuple(sum((x * Fraction(y) for x, y in zip(row, v)), Fraction(0)) for row in a)


def fraction_rref(rows):
    """In-place reduced row echelon form in Fractions; returns (rows, pivot
    column list).  The oracle for rank and kernel_basis."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def fraction_kernel_basis(a):
    """Null space basis read off the Fraction RREF: the oracle for
    la.kernel_basis."""
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = fraction_rref([list(row) for row in a])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def fraction_intersection_basis(a, b):
    """Images x^T a of a kernel basis of [a^T | -b^T], summed in Fractions:
    the oracle for la.intersection_basis on matrices with independent rows."""
    stacked = tuple(ra + tuple(-x for x in rb) for ra, rb in zip(la.transpose(a), la.transpose(b)))
    return [
        tuple(
            sum((c * a[i][j] for i, c in enumerate(sol[: len(a)])), Fraction(0))
            for j in range(len(a[0]))
        )
        for sol in fraction_kernel_basis(stacked)
    ]


def fraction_det(a):
    """Determinant by Fraction Gaussian elimination: the oracle for la.det."""
    n = len(a)
    rows = [list(row) for row in a]
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = -result
        result *= rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / rows[c][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def fraction_reflection(v, x):
    """x reflected across v-perp in Fractions, for a rational v != 0."""
    vv = sum(a * a for a in v)
    f = 2 * sum(a * b for a, b in zip(v, x)) / vv
    return [xi - f * vi for xi, vi in zip(x, v)]


def both_triangles_lie_lift(a):
    """B = (1/4) sum_ij a_ij e_j e_i summed over every off-diagonal entry,
    both triangles, in Fractions: the oracle for lie_lift, which reads each
    pair i < j once."""
    d, rows = a.entries
    n = a.n
    terms = {}
    for i in range(n):
        for j in range(n):
            c = rows[i][j]
            if not c or i == j:
                continue
            # e_j e_i written in canonical order: sign -1 when j > i
            mask = (1 << i) | (1 << j)
            terms[mask] = terms.get(mask, 0) + Fraction(c if j < i else -c, 4 * d)
    return Multivector(n, terms)


def ad_differential_reference(b):
    """ad_differential with b e_j and e_j b formed as two integer_product
    dicts and merged: the oracle for the one pass over b's terms."""
    n = b.n
    terms = b.terms.items()
    cols = []
    for j in range(n):
        ej = [(1 << j, 1)]
        image = integer_product(terms, ej)
        for m, c in integer_product(ej, terms).items():
            image[m] = image.get(m, 0) - c
        if any(c and blade_grade(m) != 1 for m, c in image.items()):
            raise ValueError("commutator does not preserve grade 1")
        cols.append([image.get(1 << i, 0) for i in range(n)])
    return SkewMatrix((b.d, la.transpose(cols)))


def fraction_lift_rotation(rotation):
    """The Cartan-Dieudonne lift with rational (not rescaled) reflection
    vectors, reflecting every column in Fractions and multiplying the factors
    as Multivectors: the oracle for lift_rotation.  Returns the
    sign-canonical lift as a Multivector, or raises LiftError."""
    n = rotation.n
    cols = [list(col) for col in la.transpose(fraction_view(rotation.entries))]
    factors = []
    for j in range(n):
        ej = [Fraction(1 if i == j else 0) for i in range(n)]
        if cols[j] == ej:
            continue
        v = [a - b for a, b in zip(cols[j], ej)]
        factors.append(v)
        cols = [fraction_reflection(v, c) for c in cols]
    if len(factors) % 2:
        raise LiftError("odd reflection count: input is orientation-reversing")
    zeta = Multivector.scalar(n, 1)
    norm_sq = Fraction(1)
    for v in factors:
        zeta = zeta * Multivector(n, {1 << i: c for i, c in enumerate(v)})
        norm_sq *= sum(a * a for a in v)
    num, den = norm_sq.numerator, norm_sq.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise LiftError("rotation has no rational spin lift (spinor norm is not a square)")
    root = Fraction(rn, rd)
    zeta = zeta * (1 / root)
    coefficients = fraction_terms(zeta)
    if coefficients[min(coefficients)] < 0:
        zeta = -zeta
    return zeta


def reflection_iota_plus(rep, r):
    """The spinor-type lift by reflections: the Cartan-Dieudonne lift of the
    rotation r = delta7(zeta), a ``(d, rows)`` pair, with the sign that fixes
    the model's spinor psi read by the Fraction oracle
    ``fraction_half_images``.  The oracle for iota_plus, which reads the
    lift off the module instead."""
    eta = lift_rotation(RotationMatrix(r))
    psi = tuple(map(Fraction, rep.fixed_spinor))
    (image,) = fraction_half_images(rep, eta.value, "+", [psi])
    if image == psi:
        return eta
    if image == tuple(-x for x in psi):
        return -eta
    raise InternalCheckError("candidate lift moves the fixed spinor line")


def spinor_so7(rep, basis=None):
    """lie_lift(SkewMatrix(delta7(rep, x))) for each x of ``basis``, by default
    spin7_lie_basis(): the spinor-type so(7) copy as so(8) bivectors, the
    images common_fixed_space and g2_intersection_basis read."""
    return [lie_lift(SkewMatrix(delta7(rep, x))) for x in (spin7_lie_basis() if basis is None else basis)]


def spinor_lift(rep, zeta):
    """iota_plus of a spin element zeta of Spin(7), lifted from its delta7 pair."""
    return iota_plus(rep, delta7(rep, zeta.value))


def multiply_form_traces(rep, columns):
    """tr(c(e_A)^T M) = sum_j sign[j] M[perm[j]][j] for each even mask A, one
    multiplication by a sign per column, M given by its 16 columns: the
    multiply-form read-out, the oracle for gammarep._even_traces."""
    return {
        mask: sum(map(mul, sign, map(getitem, columns, perm)))
        for mask, (perm, sign) in rep.monomials.items()
        if not blade_grade(mask) & 1
    }


def loop_p_iso(a):
    """p_iso by one Multivector product per generator, e_i -> e0 e_(i+1):
    the oracle for the closed-form p_iso."""
    m = a.n + 1
    out = Multivector(m, {})
    e0 = Multivector.basis_vector(m, 0)
    for mask, coeff in fraction_terms(a).items():
        factor = Multivector.scalar(m, coeff)
        for i in range(a.n):
            if mask >> i & 1:
                factor = factor * e0 * Multivector.basis_vector(m, i + 1)
        out = out + factor
    return out


def uncached_relative_cohomology(cx, k, coefficients):
    """H^k(X, Y; G) from two fresh Smith diagonals: the oracle for the
    diagonals relative_cohomology keeps on the complex."""
    if k < 0 or k > cx.dim:
        return AbelianGroup(0)
    m = coefficients.modulus
    up = smith_diagonal(cx.relative_coboundary_matrix(k)) if k < cx.dim else []
    down = smith_diagonal(cx.relative_coboundary_matrix(k - 1)) if k > 0 else []
    free = len(cx.relative_indices(k)) - len(up) - len(down)
    return AbelianGroup.from_orders([gcd(d, m) for d in [0] * free + down + (up if m else [])])


def smith_diagonal_reference(rows, log=None):
    """The Smith diagonal by the full elimination loop: each step scans the
    whole remaining block for its pivot and applies every row and column
    operation to all m rows.  The oracle for snf.smith_diagonal, which
    takes the same pivots and reaches the same intermediate matrices: a
    list ``log`` receives a copy of the matrix at the start of each pass."""
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
            if log is not None:
                log.append([list(r) for r in a])
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


def sweep_until_stable(orders):
    """Torsion coefficients of cyclic groups of the given orders, by gcd/lcm
    sweeps repeated until one changes nothing: the oracle for the single
    sweep in AbelianGroup.from_orders."""
    tors = sorted(d for d in orders if d > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(tors)):
            for j in range(i + 1, len(tors)):
                if tors[j] % tors[i]:
                    g = gcd(tors[i], tors[j])
                    tors[i], tors[j] = g, tors[i] * tors[j] // g
                    changed = True
        tors = sorted(t for t in tors if t > 1)
    return tuple(tors)


def dense_signed_perm(sp):
    """The 16-row Fraction matrix whose column j is sign[j] * e_perm[j]: the
    dense view of a generator or monomial (16 columns) or of a chiral half
    (8 columns, its basis spinors)."""
    perm, sign = sp
    rows = [[Fraction(0)] * len(perm) for _ in range(16)]
    for j, (r, s) in enumerate(zip(perm, sign)):
        rows[r][j] = Fraction(s)
    return tuple(tuple(r) for r in rows)


def fraction_clifford_action(rep, a):
    """The 16x16 matrix of c(a) summed monomial by monomial in Fractions: the
    dense view that the half_images oracle reads."""
    total = [[Fraction(0)] * 16 for _ in range(16)]
    for mask, coeff in fraction_terms(a).items():
        perm, sign = rep.monomials[mask]
        for j in range(16):
            total[perm[j]][j] += coeff * sign[j]
    return tuple(tuple(row) for row in total)


def fraction_half_images(rep, a, source, vectors, target=None):
    """c(a) v for rows v of 8 coordinates in the basis of half ``source``,
    by the dense oracle: each v embedded in R^16 through the source's basis
    spinors, multiplied by fraction_clifford_action and read back in the
    basis of ``target`` (default ``source``), as Fractions; the oracle for
    half_images and, on the 8 unit rows, for chiral_action_matrix.  Raises
    ChiralityError when an image has a component outside the target."""
    source_basis = dense_signed_perm(rep.halves[source])
    target_basis = dense_signed_perm(rep.halves[target or source])
    m = fraction_clifford_action(rep, a)
    images = []
    for v in vectors:
        image = fraction_mat_vec(m, fraction_mat_vec(source_basis, v))
        coords = fraction_mat_vec(la.transpose(target_basis), image)
        if fraction_mat_vec(target_basis, coords) != image:
            raise ChiralityError("element does not preserve the chiral subspace")
        images.append(coords)
    return images


def chiral_matrix_stabilizer_dimension(rep, psi, algebra):
    """The stabilizer dimension read off the whole 8x8 chiral matrix of each
    algebra element times psi, ranked by the Fraction RREF rather than
    la.rank: the oracle for stabilizer_dimensions."""
    _, (v,) = la.exact(1, [psi])
    images = [la.mat_mul((v,), la.transpose(chiral_action_matrix(rep, x, "+")[1]))[0] for x in algebra]
    return len(algebra) - len(fraction_rref([list(map(Fraction, row)) for row in images])[1])


def dense_orthogonal_skew_failure(rep):
    """The reps check "gamma matrices are orthogonal and skew-symmetric" on
    dense 16x16 Fraction generators: its oracle.  Returns the failure detail
    or None."""
    for i in range(8):
        g = dense_signed_perm(rep.monomials[1 << i])
        gt = la.transpose(g)
        if fraction_mat_mul(gt, g) != la.identity(16):
            return f"gamma_{i} is not orthogonal"
        if gt != tuple(tuple(-x for x in row) for row in g):
            return f"gamma_{i} is not skew"
    return None


def dense_eigensplit_failure(rep):
    """The reps check "volume action splits R^16 into orthonormal 8+8
    eigenspaces" on the dense c(omega8) and 16x8 halves: its oracle."""
    omega = fraction_clifford_action(rep, volume_element(8))
    if fraction_mat_mul(omega, omega) != la.identity(16):
        return "volume action does not square to 1"
    for chirality, sign in (("+", 1), ("-", -1)):
        basis = dense_signed_perm(rep.halves[chirality])
        if fraction_mat_mul(omega, basis) != tuple(tuple(sign * x for x in row) for row in basis):
            return "claimed eigenbasis is not an eigenbasis"
        if fraction_mat_mul(la.transpose(basis), basis) != la.identity(8):
            return "eigenbasis is not orthonormal"
    return None


SWAP_CHECK = "25 random unit vectors swap the chiral halves isometrically"


def dense_swap_failure(rep, seed=0):
    """The reps check SWAP_CHECK on dense Fraction matrices, drawing the
    vectors from that check's own generator, seeded "{seed}:{name}": its
    oracle."""
    rng = random.Random(f"{seed}:{SWAP_CHECK}")
    plus, minus = dense_signed_perm(rep.halves["+"]), dense_signed_perm(rep.halves["-"])
    for _ in range(25):
        m = fraction_clifford_action(rep, rational_unit_vector(8, rng))
        image = fraction_mat_mul(m, plus)
        if fraction_mat_mul(minus, fraction_mat_mul(la.transpose(minus), image)) != image:
            return "unit vector does not map S+ into S-"
        if fraction_mat_mul(la.transpose(image), image) != la.identity(8):
            return "unit vector action is not an isometry"
        image = fraction_mat_mul(m, minus)
        if fraction_mat_mul(plus, fraction_mat_mul(la.transpose(plus), image)) != image:
            return "unit vector does not map S- into S+"
    return None


def dense_pair_check(dim, boundary, sub):
    """The dense dd = 0 and Y-closure checks on a CW pair's data: the oracle
    for CWPairComplex validation.

    Returns the message the constructor should raise, or None when the data
    is a valid pair.  Every boundary matrix in degrees 1..dim must be given.
    """
    for k in range(1, dim):
        a, b = boundary[k], boundary[k + 1]
        if not a or not b or not a[0]:
            continue
        for i in range(len(a)):
            for j in range(len(b[0])):
                if sum(a[i][t] * b[t][j] for t in range(len(b))):
                    return f"dd != 0 between degrees {k + 1} and {k}"
    for k in range(1, dim + 1):
        for j, in_y in enumerate(sub[k]):
            for i in range(len(boundary[k])):
                if in_y and boundary[k][i][j] and not sub[k - 1][i]:
                    return "subcomplex is not closed under the boundary"
    return None


def dict_pair_check(cells, columns, sub):
    """The dd = 0 and closed-Y checks on stored (row, entry) columns, each
    column of d_k d_(k+1) added up in a fresh dict: the oracle for
    CWPairComplex._validate and its list accumulator.  Returns the message the assembly step should raise, or
    None when the columns form a valid pair."""
    for k in range(1, len(cells) - 1):
        for col in columns[k + 1]:
            acc = {}
            for t, x in col:
                for i, y in columns[k][t]:
                    acc[i] = acc.get(i, 0) + x * y
            if any(acc.values()):
                return f"dd != 0 between degrees {k + 1} and {k}"
    for k in range(1, len(cells)):
        below = sub[k - 1]
        for col, in_y in zip(columns[k], sub[k]):
            if in_y and not all(below[i] for i, _ in col):
                return "subcomplex is not closed under the boundary"
    return None


def starred_product(p, q):
    """(cells, columns, sub) of the product pair (X, A) x (Y, B), each column
    built on its own by starred unpacking of shifted (row, entry) lists: the
    oracle for pair_product's block-wise columns."""
    blocks = [(j, b) for j, count in enumerate(q._cells) for b in range(count)]
    cells, starts = [], []
    for k in range(p.dim + q.dim + 1):
        sizes = [p.cell_count(k - j) for j, _ in blocks]
        cells.append(sum(sizes))
        starts.append(dict(zip(blocks, accumulate(sizes, initial=0))))
    columns, sub = [], {}
    for k in range(len(cells)):
        columns_k, flags = [], []
        for j, b in blocks:
            i = k - j
            n = p.cell_count(i)
            if not n:
                continue
            flags += [True] * n if q._sub[j][b] else p._sub[i]
            if not k:
                columns_k += [()] * n
                continue
            down = starts[k - 1][j, b]
            sign = -1 if i & 1 else 1
            db = [(starts[k - 1][j - 1, r], sign * y) for r, y in q._columns[j][b]]
            for a, da in enumerate(p._columns[i]):
                columns_k.append((*[(row0 + a, y) for row0, y in db], *[(down + r, x) for r, x in da]))
        columns.append(tuple(columns_k))
        sub[k] = tuple(flags)
    return cells, tuple(columns), sub


def loop_group_invariants(free_rank, torsion):
    """The torsion AbelianGroup(free_rank, torsion) keeps, or the exception it
    raises, by one Python loop per check: the oracle for its C-level passes."""
    for x in (free_rank, *torsion):
        if type(x) is not int:
            raise TypeError(f"group invariants must be int, not {x!r}")
    if free_rank < 0 or min(torsion, default=1) < 1:
        raise ValueError("free rank must be nonnegative and torsion orders positive")
    tors = tuple(t for t in torsion if t != 1)
    for a, b in zip(tors, tors[1:]):
        if b % a:
            raise ValueError("torsion coefficients must form a divisibility chain")
    return tors


def group_zero(g):
    """The zero of the FiniteAbelianGroup g."""
    return (0,) * len(g.orders)


def group_add(g, a, b):
    """a + b in the FiniteAbelianGroup g, componentwise: the oracle for its
    shift table."""
    return tuple((x + y) % m for x, y, m in zip(a, b, g.orders))


def group_neg(g, a):
    return tuple((-x) % m for x, m in zip(a, g.orders))


def group_sub(g, a, b):
    return group_add(g, a, group_neg(g, b))


def zero_cochain(cx, k, coeff):
    return Cochain(cx, k, coeff, (0,) * cx.cell_count(k))


def cochain_add(a, b):
    """a + b for two cochains on one complex, degree and coefficient group,
    reduced by the constructor: the oracle for the identities that
    ``coboundary`` and ``difference_cochain`` satisfy."""
    assert (a.complex, a.degree, a.coefficients) == (b.complex, b.degree, b.coefficients)
    return Cochain(a.complex, a.degree, a.coefficients, tuple(x + y for x, y in zip(a.values, b.values)))


def cochain_neg(a):
    return Cochain(a.complex, a.degree, a.coefficients, tuple(-x for x in a.values))


def cochain_sub(a, b):
    return cochain_add(a, cochain_neg(b))


def all_points_difference_axioms(d):
    """The difference-table axioms checked at every pair and triple: the
    oracle for verify_difference_axioms.  True when all of them hold."""
    g = d.group
    if not d.carrier or any(k not in d.table for k in product(d.carrier, repeat=2)):
        return False
    for x, y, z in product(d.carrier, repeat=3):
        if d.table[(x, z)] != group_add(g, d.table[(x, y)], d.table[(y, z)]):
            return False
    for x, y in product(d.carrier, repeat=2):
        if (d.table[(x, y)] == group_zero(g)) != (x == y):
            return False
    for x in d.carrier:
        if {d.table[(x, y)] for y in d.carrier} != set(g.elements()):
            return False
    return len(d.carrier) == g.order()


def all_points_validate_action(a):
    """The action axioms checked at every point and every pair of group
    elements: the oracle for the check in difference_from_action."""
    g = a.group
    elements = g.elements()
    if not a.carrier:
        raise TorsorError("carrier is empty")
    for h, x in product(elements, a.carrier):
        if (h, x) not in a.table:
            raise TorsorError(f"action value missing for ({h},{x})")
    if len(a.carrier) != g.order():
        raise TorsorError(f"carrier size {len(a.carrier)} != group order {g.order()}")
    for x in a.carrier:
        if a.table[(group_zero(g), x)] != x:
            raise TorsorError("zero does not act as the identity")
    for h, k, x in product(elements, elements, a.carrier):
        if a.table[(k, a.table[(h, x)])] != a.table[(group_add(g, h, k), x)]:
            raise TorsorError("action is not compatible with addition")
    for x in a.carrier:
        orbit = {a.table[(h, x)] for h in elements}
        if len(orbit) != len(elements):
            raise TorsorError("action is not free")
        if orbit != set(a.carrier):
            raise TorsorError("action is not transitive")


@pytest.fixture(scope="session")
def rep():
    """The Cl(0,8) module; built once, immutable, shared by all tests."""
    return build_cl8_rep()


def make_random_pair_complex(
    rng: random.Random, max_pieces: int = 10, dim: int = 5, incidences: tuple[int, ...] = (1, 2, 3)
) -> CWPairComplex:
    """Random valid CW pair: a direct sum of cells and two-cell torsion pieces.

    Every piece is either a lone d-cell or a pair (d-cell, (d-1)-cell) with
    incidence m in ``incidences``; whole pieces may be marked as part of Y,
    which keeps the subcomplex closed under the boundary by construction.
    """
    cells = [0] * (dim + 1)
    pieces = []
    for _ in range(rng.randint(2, max_pieces)):
        d = rng.randint(0, dim)
        in_y = rng.random() < 0.3
        if d >= 1 and rng.random() < 0.5:
            pieces.append((d, rng.choice(list(incidences)), in_y))
        else:
            pieces.append((d, None, in_y))
    for d, m, _ in pieces:
        cells[d] += 1
        if m is not None:
            cells[d - 1] += 1
    boundary = {k: [[0] * cells[k] for _ in range(cells[k - 1])] for k in range(1, dim + 1)}
    sub = {k: [0] * cells[k] for k in range(dim + 1)}
    cursor = [0] * (dim + 1)
    for d, m, in_y in pieces:
        j = cursor[d]
        cursor[d] += 1
        if in_y:
            sub[d][j] = 1
        if m is not None:
            i = cursor[d - 1]
            cursor[d - 1] += 1
            boundary[d][i][j] = m * rng.choice([1, -1])
            if in_y:
                sub[d - 1][i] = 1
    return CWPairComplex(cells, boundary, sub)


def make_consistent_difference_inputs(base: CWPairComplex, degree: int, rng: random.Random, coeff):
    """(o_hat, o0, o1) with o_hat a cocycle on the cylinder restricting to o0/o1.

    o_hat = delta(b) for a random b vanishing on the cylinder subcomplex,
    optionally plus a relative cocycle supported on the interval block, so
    the inputs satisfy exactly the consistency conditions the decomposition
    requires.
    """
    prod = product_with_interval(base)
    m = degree
    values = [rng.randint(-5, 5) for _ in range(prod.cell_count(m - 1))]
    nb = base.cell_count(m - 1)
    flags = base.sub  # each read of base.sub builds a fresh copy
    for s in range(nb):
        if flags[m - 1][s]:
            values[s] = 0
            values[nb + s] = 0
    for t in range(base.cell_count(m - 2)):
        if flags[m - 2][t]:
            values[2 * nb + t] = 0
    b = Cochain(prod, m - 1, coeff, tuple(values))
    o_hat = coboundary(b)
    n = base.cell_count(m)
    o0 = Cochain(base, m, coeff, o_hat.values[:n])
    o1 = Cochain(base, m, coeff, o_hat.values[n : 2 * n])
    return o_hat, o0, o1


def block_cylinder(cx: CWPairComplex) -> CWPairComplex:
    """The cylinder X x I placed block by block: the oracle for
    ``product_with_interval``.

    k-cells are ordered [s x 0 | s x 1 | t x I] and d(t x I) =
    dt x I - (-1)^(k-1) t x 0 + (-1)^(k-1) t x 1 for a (k-1)-cell t.
    """
    dim = cx.dim + 1
    cells = [2 * cx.cell_count(k) + cx.cell_count(k - 1) for k in range(dim + 1)]
    flags = cx.sub  # each read of cx.sub builds a fresh copy
    sub = {k: [1] * (2 * cx.cell_count(k)) + [int(f) for f in flags.get(k - 1, [])] for k in range(dim + 1)}
    dense = cx.boundary  # each read of cx.boundary builds a fresh copy
    boundary = {}
    for k in range(1, dim + 1):
        nk0, nk1, nk2 = cx.cell_count(k), cx.cell_count(k - 1), cx.cell_count(k - 2)
        m = [[0] * (2 * nk0 + nk1) for _ in range(2 * nk1 + nk2)]
        sign = -1 if (k - 1) & 1 else 1
        for j in range(nk0):  # columns s x 0 and s x 1
            for i in range(nk1):
                m[i][j] = m[nk1 + i][nk0 + j] = dense[k][i][j]
        for t in range(nk1):  # columns t x I
            col = 2 * nk0 + t
            m[t][col] = -sign
            m[nk1 + t][col] = sign
            for i in range(nk2):
                m[2 * nk1 + i][col] = dense[k - 1][i][t]
        boundary[k] = m
    return CWPairComplex(cells, boundary, sub)


def cross_with_interval(c: Cochain, gen: str) -> Cochain:
    """Cross product of a cochain on X with the interval generator "0", "1"
    (degree 0) or "I" (degree 1): the cochain on the cylinder that is c on
    the matching block of cells and zero elsewhere."""
    cx = c.complex
    prod = product_with_interval(cx)
    out_deg = c.degree + (gen == "I")
    n = cx.cell_count(out_deg)
    start = {"0": 0, "1": n, "I": 2 * n}[gen]
    values = [0] * prod.cell_count(out_deg)
    values[start : start + len(c.values)] = c.values
    return Cochain(prod, out_deg, c.coefficients, tuple(values))


@pytest.fixture
def random_pair_complex():
    return make_random_pair_complex


@pytest.fixture
def consistent_difference_inputs():
    return make_consistent_difference_inputs
