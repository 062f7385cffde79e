"""Machine-checked verification checks behind the `verify` subcommand.

Every check is exact: equality of rational matrices in the ``(d, rows)``
form of ``exactlinalg``, of multivectors, or of integer ranks.  The checks
are module-level functions, each listed once in ``CHECKS`` as a
``(scope, name, check)`` row; a scope runs its rows in table order, so
adding a scope means adding rows.  A check names what it reads as its
parameters: ``rng`` is a generator seeded with ``f"{seed}:{name}"``, so a
check's draws depend only on the seed and its own name.  Every other
parameter names a per-run input, built by its builder in ``_INPUTS`` at
most once per ``run_suites`` call, on the first read by a selected row,
and shared by the later rows of that call: ``rep`` is the Cl(0,8) module,
and ``spinor_so7`` the spinor-type so(7) copy, the 21 pairs
``(delta7(rep, x), lie_lift(SkewMatrix(delta7(rep, x))))`` over
``spin7_lie_basis()``.  A builder that raises fails every check that reads
its input, with the detail of a check that raises.
A check returns None when it passes and a one-line detail when it fails.
"""

from __future__ import annotations

import random
from operator import mul
from typing import Callable

from . import exactlinalg as la
from .errors import ChiralityError, Frozen
from .gammarep import (
    BASIS_SPINORS,
    GammaRep,
    build_cl8_rep,
    chiral_action_matrix,
    common_fixed_space,
    delta7,
    embed_spin7,
    g2_intersection_basis,
    half_images,
    iota_plus,
    iota_vector,
    monomial_span_rank,
    sp_compose,
    sp_identity,
    spin7_lie_basis,
    stabilizer_dimensions,
)
from .multivector import (
    Multivector,
    blade_grade,
    chiral_projectors,
    p_iso,
    volume_element,
)
from .spingroup import (
    SpinElement,
    ad_differential,
    adjoint_action,
    lie_lift,
    lift_rotation,
    random_spin,
    rational_unit_tuple,
    rational_unit_vector,
    reflect,
    SkewMatrix,
)


_So7 = list[tuple[la.Exact, Multivector]]


def _negated(m: la.Exact) -> la.Exact:
    return m[0], tuple(tuple(-x for x in row) for row in m[1])


class CheckResult(Frozen):
    _fields = __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


def _run(name: str, check: Callable[..., str | None], built: dict, seed: int) -> CheckResult:
    try:
        # the inputs are read in here, so a builder's raise is the check's FAIL
        inputs = {
            key: random.Random(f"{seed}:{name}") if key == "rng" else _input(built, key)
            for key in _params(check)
        }
        detail = check(**inputs)
    except Exception as exc:  # a crash is a failed check, not a crashed report
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, detail is None, detail or "")


def _random_multivector(n: int, rng: random.Random) -> Multivector:
    # coefficient p/q with q in 1..4 is p * (12 // q) over 12; the value is
    # drawn before the mask, as Python evaluates it before the subscript
    terms = {}
    for _ in range(4):
        terms[rng.randrange(1 << n)] = rng.randint(-6, 6) * (12 // rng.randint(1, 4))
    return Multivector._over(n, 12, terms)


# ---------------------------------------------------------------------------
# clifford scope

def generator_relations() -> str | None:
    for n in range(1, 9):
        e = [Multivector.basis_vector(n, i) for i in range(n)]
        minus_two, zero = Multivector.scalar(n, -2), Multivector.scalar(n, 0)
        for i, a in enumerate(e):
            for j, b in enumerate(e):
                if a * b + b * a != (minus_two if i == j else zero):
                    return f"failed at n={n}, pair ({i},{j})"
    return None


def associativity(rng: random.Random) -> str | None:
    for _ in range(40):
        n = rng.randint(2, 8)
        a, b, c = (_random_multivector(n, rng) for _ in range(3))
        if (a * b) * c != a * (b * c):
            return f"failed in Cl(0,{n})"
    return None


def involution_laws(rng: random.Random) -> str | None:
    for _ in range(30):
        n = rng.randint(2, 8)
        a, b = (_random_multivector(n, rng) for _ in range(2))
        if (a * b).grade_involution() != a.grade_involution() * b.grade_involution():
            return "grade involution is not multiplicative"
        if (a * b).reverse() != b.reverse() * a.reverse():
            return "reversal is not anti-multiplicative"
    return None


def even_embedding(rng: random.Random) -> str | None:
    for _ in range(30):
        n = rng.randint(1, 7)
        a, b = (_random_multivector(n, rng) for _ in range(2))
        image = p_iso(a * b)
        if image != p_iso(a) * p_iso(b):
            return "even-part embedding is not multiplicative"
        if any(blade_grade(m) & 1 for m in image.terms):
            return "image contains odd blades"
    return None


def volume_element_laws() -> str | None:
    w7, w8 = volume_element(7), volume_element(8)
    if w7 * w7 != Multivector.scalar(7, 1) or w8 * w8 != Multivector.scalar(8, 1):
        return "volume element square is not 1"
    for i in range(7):
        e = Multivector.basis_vector(7, i)
        if w7 * e != e * w7:
            return "omega7 is not central"
    for mask in range(256):
        blade = Multivector(8, {mask: 1})
        sign = -1 if blade_grade(mask) & 1 else 1
        if w8 * blade != blade * w8 * sign:
            return f"omega8 parity rule fails on blade {mask:#x}"
    return None


def projector_laws() -> str | None:
    plus, minus = chiral_projectors()
    one = Multivector.scalar(7, 1)
    zero = Multivector(7, {})
    if plus * plus != plus or minus * minus != minus:
        return "projectors are not idempotent"
    if plus * minus != zero or plus + minus != one:
        return "projectors are not complementary"
    return None


# ---------------------------------------------------------------------------
# spin scope

def cover_homomorphism(rng: random.Random) -> str | None:
    for _ in range(10):
        n = rng.choice([3, 5, 7, 8])
        z1 = random_spin(n, rng.randint(1, 2), rng.randrange(10**6))
        z2 = random_spin(n, rng.randint(1, 2), rng.randrange(10**6))
        lhs = adjoint_action(z1 * z2).entries
        (d1, r1), (d2, r2) = adjoint_action(z1).entries, adjoint_action(z2).entries
        if lhs != la.exact(d1 * d2, la.mat_mul(r1, r2)):
            return f"failed in Spin({n})"
    return None


def cover_kernel(rng: random.Random) -> str | None:
    for n in (3, 7, 8):
        ident = (1, la.identity(n))
        for sign in (1, -1):
            z = SpinElement(Multivector.scalar(n, sign))
            if adjoint_action(z).entries != ident:
                return f"+-1 not in the kernel for n={n}"
        z = random_spin(n, 1, rng.randrange(10**6))
        if z.value not in (Multivector.scalar(n, 1), Multivector.scalar(n, -1)):
            if adjoint_action(z).entries == ident:
                return f"non-central element acts trivially in Spin({n})"
    return None


def lift_section(rng: random.Random) -> str | None:
    for _ in range(6):
        n = rng.choice([3, 7, 8])
        z = random_spin(n, rng.randint(1, 2), rng.randrange(10**6))
        rot = adjoint_action(z)
        lifted = lift_rotation(rot)
        if adjoint_action(lifted).entries != rot.entries:
            return f"lift does not invert the cover in Spin({n})"
        if lifted.value not in (z.value, -z.value):
            return "lift is not the original element up to sign"
    return None


def double_reflection(rng: random.Random) -> str | None:
    for _ in range(10):
        n = rng.choice([3, 7, 8])
        v = rational_unit_vector(n, rng)
        w = rational_unit_vector(n, rng)
        x = rational_unit_vector(n, rng)
        reflected = reflect(v, x)
        z = w * v
        if reflect(w, reflected) != z * x * z.reverse():
            return "double reflection disagrees with conjugation"
        if (reflected * reflected).scalar_part() != (x * x).scalar_part():
            return "reflection does not preserve lengths"
    return None


def bivector_lift(rng: random.Random) -> str | None:
    for _ in range(8):
        n = rng.choice([4, 7, 8])
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                entries[i][j] = rng.randint(-5, 5)
                entries[j][i] = -entries[i][j]
        a = SkewMatrix((1, entries))
        if ad_differential(lie_lift(a)).entries != a.entries:
            return f"skew lift fails for n={n}"
    return None


def seeded_determinism() -> str | None:
    # random_spin returns a SpinElement, whose constructor owns unit norm: a
    # product that is not unit norm raises there, and _run reports a FAIL
    for n, k, s in ((7, 2, 5), (8, 3, 17)):
        if random_spin(n, k, s).value != random_spin(n, k, s).value:
            return "equal seeds gave different elements"
    return None


# ---------------------------------------------------------------------------
# reps scope
#
# The module checks read the signed permutations the actions use:
# M e_j = s_j e_p(j), generator i is monomials[1 << i], and a half's basis
# spinor j is s_j e_rows(j).

def gamma_anticommutators(rep: GammaRep) -> str | None:
    # the first pair i <= j in row-major order with c(e_i) c(e_j) + c(e_j) c(e_i)
    # != -2 delta_ij; the sum is symmetric, and two signed permutations sum
    # to zero exactly when they share p and have opposite signs
    gammas = [rep.monomials[1 << i] for i in range(8)]
    minus_one = (tuple(range(16)), (-1,) * 16)
    for i, gi in enumerate(gammas):
        if sp_compose(gi, gi) != minus_one:
            return f"pair ({i},{i})"
        for j in range(i + 1, 8):
            (p1, s1), (p2, s2) = sp_compose(gi, gammas[j]), sp_compose(gammas[j], gi)
            if p1 != p2 or any(x != -y for x, y in zip(s1, s2)):
                return f"pair ({i},{j})"
    return None


def gamma_orthogonal_skew(rep: GammaRep) -> str | None:
    # orthogonal: p permutes 0..15 and every s_j = +-1;
    # skew: M[j][p(j)] = -s_j, that is p(p(j)) = j and s_p(j) = -s_j
    for i in range(8):
        perm, sign = rep.monomials[1 << i]
        if sorted(perm) != list(range(16)) or any(s * s != 1 for s in sign):
            return f"gamma_{i} is not orthogonal"
        if any(perm[perm[j]] != j or sign[perm[j]] != -sign[j] for j in range(16)):
            return f"gamma_{i} is not skew"
    return None


def monomial_span(rep: GammaRep) -> str | None:
    r = monomial_span_rank(rep)
    return None if r == 256 else f"rank {r} != 256"


def volume_eigensplit(rep: GammaRep) -> str | None:
    omega = rep.monomials[255]
    if sp_compose(omega, omega) != sp_identity(16):
        return "volume action does not square to 1"
    perm, sign = omega
    for chirality, s in (("+", 1), ("-", -1)):
        rows, signs = rep.halves[chirality]
        if any(perm[r] != r or sign[r] != s for r in rows):
            return "claimed eigenbasis is not an eigenbasis"
        if len(rows) != 8 or len(set(rows)) != 8 or any(x * x != 1 for x in signs):
            return "eigenbasis is not orthonormal"
    return None


def chiral_swap(rep: GammaRep, rng: random.Random) -> str | None:
    # d c(v) on a half's basis spinors, read in the other half's basis; the
    # halves are orthonormal (eigensplit), so the reading keeps dot products
    for _ in range(25):
        v = rational_unit_vector(8, rng)
        try:
            cols = half_images(rep, v, "+", BASIS_SPINORS, "-")
        except ChiralityError:
            return "unit vector does not map S+ into S-"
        for a, ca in enumerate(cols):
            for b in range(a, len(cols)):
                if sum(map(mul, ca, cols[b])) != (v.d * v.d if a == b else 0):
                    return "unit vector action is not an isometry"
        try:
            half_images(rep, v, "-", BASIS_SPINORS, "+")
        except ChiralityError:
            return "unit vector does not map S- into S+"
    return None


def volume_signs(rep: GammaRep) -> str | None:
    ident8 = (1, la.identity(8))
    if chiral_action_matrix(rep, volume_element(8), "+") != ident8:
        return "volume element does not act as +1 on the positive half"
    if chiral_action_matrix(rep, volume_element(8), "-") != _negated(ident8):
        return "volume element does not act as -1 on the negative half"
    return None


def minus_one_lift(rep: GammaRep) -> str | None:
    minus_one = SpinElement(Multivector.scalar(7, -1))
    if iota_plus(rep, delta7(rep, minus_one.value)).value != volume_element(8):
        return "spinor-type lift of -1 is not the volume element"
    if iota_vector(minus_one).value != Multivector.scalar(8, -1):
        return "vector-type embedding of -1 is not -1"
    return None


def spinor_lift_identity(rep: GammaRep, spinor_so7: _So7, rng: random.Random) -> str | None:
    for r, b in spinor_so7:
        if ad_differential(b).entries != r:
            return "Lie-algebra level identity fails"
    for _ in range(10):
        z = random_spin(7, rng.randint(1, 2), rng.randrange(10**6))
        r = delta7(rep, z.value)
        if adjoint_action(iota_plus(rep, r)).entries != r:
            return "group level identity fails"
    return None


def fixed_line(rep: GammaRep, spinor_so7: _So7) -> str | None:
    # certifies the model's psi and the orientation of S8+ (reversed, it is 0)
    basis = common_fixed_space(rep, [b for _, b in spinor_so7])
    if len(basis) != 1:
        return f"fixed space has dimension {len(basis)}"
    if basis != [rep.fixed_spinor]:
        return "fixed line is not spanned by the model's fixed spinor"
    return None


def stabilizer_21(rep: GammaRep, rng: random.Random) -> str | None:
    psis = [rational_unit_tuple(8, rng)[1] for _ in range(3)]
    dim, *dims = stabilizer_dimensions(rep, [rep.fixed_spinor, *psis])
    if dim != 21:
        return f"stabilizer dimension {dim} != 21"
    if any(dim != 21 for dim in dims):
        return "random unit spinor has a different stabilizer dimension"
    return None


def g2_intersection(rep: GammaRep, spinor_so7: _So7) -> str | None:
    basis = g2_intersection_basis([b for _, b in spinor_so7])
    if len(basis) != 14:
        return f"intersection dimension {len(basis)} != 14"
    # the span fixes psi exactly when c(x) psi = 0 for each basis element x
    psi = [rep.fixed_spinor]
    if any(any(half_images(rep, x, "+", psi)[0]) for x in basis):
        return "intersection element moves the fixed spinor"
    for z in basis:
        if any(row[0] for row in ad_differential(z).entries[1]):
            return "intersection element moves e0 infinitesimally"
    return None


def sphere_transitivity(rep: GammaRep, rng: random.Random) -> str | None:
    algebra = [embed_spin7(x) for x in spin7_lie_basis()]
    psis = [rational_unit_tuple(8, rng)[1] for _ in range(10)]
    for dim in stabilizer_dimensions(rep, psis, algebra):
        if dim != 14:
            return f"chiral so(7) stabilizer has dimension {dim} != 14"
    return None


def embeddings_differ(rep: GammaRep, rng: random.Random) -> str | None:
    z = random_spin(7, 2, rng.randrange(10**6))
    d, r_vec = adjoint_action(iota_vector(z)).entries
    if tuple(row[0] for row in r_vec) != (d,) + (0,) * 7:
        return "vector-type embedding does not fix e0"
    d, r_spin = adjoint_action(iota_plus(rep, delta7(rep, z.value))).entries
    shifted = [[x - d if i == j else x for j, x in enumerate(row)] for i, row in enumerate(r_spin)]
    if la.rank(shifted) != 8:
        return "spinor-type rotation of a generic element has a fixed vector"
    return None


def sigma_factors(rep: GammaRep, rng: random.Random) -> str | None:
    for _ in range(5):
        z = random_spin(7, rng.randint(1, 2), rng.randrange(10**6))
        r, r_of_minus = delta7(rep, z.value), delta7(rep, -z.value)
        lift, lift_of_minus = iota_plus(rep, r).value, iota_plus(rep, r_of_minus).value
        if chiral_action_matrix(rep, lift, "+") != chiral_action_matrix(rep, lift_of_minus, "+"):
            return "chiral rep of the lift does not factor through the rotation group"
        if r_of_minus != _negated(r):
            return "spin rep is not odd under negation"
    return None


# ---------------------------------------------------------------------------
# per-run inputs: a builder's parameters name the inputs it reads

def _spinor_so7(rep: GammaRep) -> _So7:
    """(r, b) for each x of ``spin7_lie_basis()``: r = delta7(rep, x), and
    b = lie_lift(SkewMatrix(r)) the so(8) bivector whose d(Ad) image is r,
    the differential of ``iota_plus`` at x."""
    return [(r, lie_lift(SkewMatrix(r))) for r in (delta7(rep, x) for x in spin7_lie_basis())]


_INPUTS = {
    "rep": lambda: build_cl8_rep(),  # the name is read per call, so a planted build is seen
    "spinor_so7": _spinor_so7,
}


def _params(f: Callable) -> tuple[str, ...]:
    return f.__code__.co_varnames[: f.__code__.co_argcount]


def _input(built: dict, key: str):
    """Per-run input ``key``: built on its first read, with the inputs its
    builder's parameters name, and kept in ``built``, or the exception its
    builder raised, for every later read of the same run."""
    if key not in built:
        builder = _INPUTS[key]
        try:
            built[key] = builder(*[_input(built, k) for k in _params(builder)])
        except Exception as exc:
            built[key] = exc
    value = built[key]
    if isinstance(value, Exception):
        raise value
    return value


# ---------------------------------------------------------------------------
# the table: the names key the seeds, so each is listed once

CHECKS = (
    ("clifford", "generator relations e_i e_j + e_j e_i = -2 delta_ij, n = 1..8", generator_relations),
    ("clifford", "geometric product associativity (40 random triples)", associativity),
    ("clifford", "grade involution / reversal (anti)automorphism laws", involution_laws),
    ("clifford", "even-part embedding is an algebra map with even image", even_embedding),
    ("clifford", "volume elements: squares, centrality, parity commutation", volume_element_laws),
    ("clifford", "chiral projectors: idempotent, orthogonal, complete", projector_laws),
    ("spin", "conjugation cover is a homomorphism (10 random pairs)", cover_homomorphism),
    ("spin", "kernel of the cover is exactly {+1, -1} (sampled)", cover_kernel),
    ("spin", "constructive lift inverts the cover (6 random rotations)", lift_section),
    ("spin", "double reflection equals conjugation by the factor product", double_reflection),
    ("spin", "bivector lift is a section of the cover differential", bivector_lift),
    ("spin", "seeded spin elements: deterministic, unit norm", seeded_determinism),
    ("reps", "gamma anticommutators realize the generator relations", gamma_anticommutators),
    ("reps", "gamma matrices are orthogonal and skew-symmetric", gamma_orthogonal_skew),
    ("reps", "256 monomial matrices span a 256-dimensional space", monomial_span),
    ("reps", "volume action splits R^16 into orthonormal 8+8 eigenspaces", volume_eigensplit),
    ("reps", "25 random unit vectors swap the chiral halves isometrically", chiral_swap),
    ("reps", "volume element acts as +1 on S+ and -1 on S-", volume_signs),
    ("reps", "spinor lift sends -1 to omega8; blade embedding keeps -1", minus_one_lift),
    ("reps", "conjugation of the spinor lift equals the spin rep (21 basis + 10 group)",
     spinor_lift_identity),
    ("reps", "joint fixed space of the spinor-type so(7) copy is a line", fixed_line),
    ("reps", "so(8)-stabilizer of unit spinors has dimension 21 (orbit rank 7)", stabilizer_21),
    ("reps", "the two so(7) copies intersect in dimension 14, fixing spinor and vector",
     g2_intersection),
    ("reps", "chiral so(7) stabilizer of 10 random unit spinors is 14-dim (orbit rank 7)",
     sphere_transitivity),
    ("reps", "the two embeddings differ: only the vector copy fixes e0", embeddings_differ),
    ("reps", "chiral rep of the lift factors through rotations; spin rep is odd", sigma_factors),
)

SCOPES = tuple(dict.fromkeys(scope for scope, _, _ in CHECKS))


def run_suites(scope: str, seed: int = 0, rep: GammaRep | None = None) -> list[CheckResult]:
    """Run the rows of one scope, or of every scope ("all"), in table order."""
    if scope not in SCOPES + ("all",):
        raise ValueError(f"unknown scope {scope!r}; expected one of {SCOPES + ('all',)}")
    built = {} if rep is None else {"rep": rep}
    results = []
    for row_scope, name, check in CHECKS:
        if scope not in (row_scope, "all"):
            continue
        results.append(_run(name, check, built, seed))
    return results
