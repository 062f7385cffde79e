"""Spin group: conjugation cover, reflections, lifting, Lie algebra section."""

import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinkit.exactlinalg as la
import spinkit.spingroup as spingroup
from conftest import (
    both_triangles_lie_lift,
    fraction_adjoint_action,
    fraction_lift_rotation,
    fraction_mat_mul,
    fraction_spin_validate,
    fraction_view,
    loop_conjugated_basis,
    one_sided_product_rows,
)
from spinkit.errors import InvalidSpinElementError, LiftError
from spinkit.gammarep import build_cl8_rep, iota_plus, iota_vector, stabilizer_dimensions
from spinkit.multivector import Multivector, blade_grade, volume_element
from spinkit.spingroup import (
    RotationMatrix,
    SkewMatrix,
    SpinElement,
    ad_differential,
    adjoint_action,
    lie_lift,
    lift_rotation,
    random_spin,
    rational_unit_vector,
    reflect,
)
from spinkit.verify import run_suites


def test_spin_element_invariants():
    with pytest.raises(InvalidSpinElementError):
        SpinElement(Multivector.basis_vector(8, 0))  # odd
    with pytest.raises(InvalidSpinElementError):
        SpinElement(Multivector.blade(8, [0, 1]) * 2)  # norm 4 != 1
    z = SpinElement(Multivector.blade(8, [0, 1]))
    assert z.value * z.value.reverse() == Multivector.scalar(8, 1)
    # (3 + 4 e0...e5)/5 is even with zeta * reverse(zeta) = 1, but it sends
    # e0 to a vector plus a 5-vector
    tilted = Multivector(6, {0: Fraction(3, 5), 0b111111: Fraction(4, 5)})
    assert tilted * tilted.reverse() == Multivector.scalar(6, 1)
    with pytest.raises(InvalidSpinElementError, match="grade 1"):
        SpinElement(tilted)


def test_adjoint_of_minus_one_is_identity():
    for n in (3, 7, 8):
        z = SpinElement(Multivector.scalar(n, -1))
        assert adjoint_action(z).entries == (1, la.identity(n))


def test_adjoint_of_plane_bivector_is_half_turn():
    z = SpinElement(Multivector.blade(8, [1, 2]))
    d, r = adjoint_action(z).entries
    assert d == 1
    for j in range(8):
        assert r[j][j] == (-1 if j in (1, 2) else 1)
    assert sum(1 for i in range(8) for j in range(8) if r[i][j] and i != j) == 0


def test_adjoint_is_rotation_on_random_elements():
    for seed in range(20):
        z = random_spin(8, 2, seed)
        rot = adjoint_action(z)  # RotationMatrix validates orthogonality, det +1
        d, r = rot.entries
        assert la.det(r) == d**8


def test_adjoint_homomorphism_and_two_to_one():
    rng = random.Random(0)
    for _ in range(8):
        n = rng.choice([3, 7, 8])
        z1 = random_spin(n, 1, rng.randrange(10**6))
        z2 = random_spin(n, 2, rng.randrange(10**6))
        (d1, r1), (d2, r2) = adjoint_action(z1).entries, adjoint_action(z2).entries
        assert adjoint_action(z1 * z2).entries == la.exact(d1 * d2, la.mat_mul(r1, r2))
        assert fraction_view(adjoint_action(z1 * z2).entries) == fraction_mat_mul(
            fraction_view((d1, r1)), fraction_view((d2, r2))
        )
        assert adjoint_action(-z1).entries == adjoint_action(z1).entries
        if z1.value not in (Multivector.scalar(n, 1), Multivector.scalar(n, -1)):
            assert adjoint_action(z1).entries != (1, la.identity(n))


def test_reflection_basic_values():
    e1, e2 = Multivector.basis_vector(8, 1), Multivector.basis_vector(8, 2)
    assert reflect(e1, e1) == -e1
    assert reflect(e1, e2) == e2


def test_reflection_preserves_gram_values():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.choice([3, 7, 8])
        v = rational_unit_vector(n, rng)
        x = rational_unit_vector(n, rng)
        y = rational_unit_vector(n, rng)
        rx, ry = reflect(v, x), reflect(v, y)
        # <a, b> = -scalar part of ab for grade-1 arguments
        assert (rx * ry).scalar_part() == (x * y).scalar_part()


def test_reflection_requires_unit_vector():
    v = Multivector(8, {1: 2})
    with pytest.raises(InvalidSpinElementError):
        reflect(v, Multivector.basis_vector(8, 1))


def test_lift_identity_and_sign_canonicalization():
    ident = RotationMatrix((1, la.identity(8)))
    z = lift_rotation(ident)
    assert z.value == Multivector.scalar(8, 1)
    half_turn = la.exact(
        1, [[-1 if i == j and i < 2 else (1 if i == j else 0) for j in range(8)] for i in range(8)]
    )
    z = lift_rotation(RotationMatrix(half_turn))
    assert z.value in (Multivector.blade(8, [0, 1]), -Multivector.blade(8, [0, 1]))
    first = min(z.value.terms)
    assert z.value.terms[first] > 0
    assert adjoint_action(z).entries == half_turn


def test_lift_of_minus_identity_is_volume_element():
    minus = [[-1 if i == j else 0 for j in range(8)] for i in range(8)]
    assert lift_rotation(RotationMatrix((1, minus))).value == volume_element(8)


def test_lift_roundtrip_on_random_rotations():
    for seed in (1, 2, 3, 4, 5):
        for n in (3, 7, 8):
            z = random_spin(n, 2, seed)
            rot = adjoint_action(z)
            lifted = lift_rotation(rot)
            assert adjoint_action(lifted).entries == rot.entries
            assert lifted.value in (z.value, (-z).value)


def test_lift_rejects_orientation_reversal():
    refl = [[-1 if i == j == 0 else (1 if i == j else 0) for j in range(8)] for i in range(8)]
    with pytest.raises(ValueError, match="determinant"):
        RotationMatrix((1, refl))  # det -1 rejected at the type level
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    with pytest.raises(ValueError):
        lift_rotation(RotationMatrix((1, swap)))


def test_lift_rejects_irrational_spinor_norm():
    # rotation by acos(3/5): its lift needs sqrt(4/5), not rational
    r = [
        [Fraction(3, 5), Fraction(-4, 5), 0],
        [Fraction(4, 5), Fraction(3, 5), 0],
        [0, 0, 1],
    ]
    rotation = RotationMatrix((1, r))
    assert rotation.entries == (5, ((3, -4, 0), (4, 3, 0), (0, 0, 5)))
    with pytest.raises(LiftError):
        lift_rotation(rotation)


def test_even_reflection_count_matches_adjoint():
    rng = random.Random(11)
    for n in (3, 8):
        v1 = rational_unit_vector(n, rng)
        v2 = rational_unit_vector(n, rng)
        z = SpinElement(v1 * v2)
        x = rational_unit_vector(n, rng)
        composed = reflect(v1, reflect(v2, x))
        assert composed == z.value * x * z.value.reverse()


def test_lie_lift_inverts_ad_differential():
    rng = random.Random(2)
    elementary = [[0] * 8 for _ in range(8)]
    elementary[0][1], elementary[1][0] = 1, -1
    b = lie_lift(SkewMatrix((1, elementary)))
    assert b == Multivector.blade(8, [0, 1]) * Fraction(-1, 2)
    assert ad_differential(b).entries == la.exact(1, elementary)
    for _ in range(20):
        n = rng.choice([4, 7, 8])
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                entries[i][j] = rng.randint(-6, 6)
                entries[j][i] = -entries[i][j]
        a = SkewMatrix((1, entries))
        assert ad_differential(lie_lift(a)).entries == a.entries
        halved = SkewMatrix((2, entries))
        assert lie_lift(halved) == lie_lift(a) * Fraction(1, 2)
        assert ad_differential(lie_lift(halved)).entries == halved.entries
        # column j holds b e_j - e_j b, here from Multivector products
        b = lie_lift(halved)
        d, rows = ad_differential(b).entries
        for j in range(n):
            ej = Multivector.basis_vector(n, j)
            column = Multivector(n, {1 << i: Fraction(row[j], d) for i, row in enumerate(rows)})
            assert column == b * ej - ej * b
    assert lie_lift(SkewMatrix((1, [[0] * 8 for _ in range(8)]))).terms == {}
    # e0 e1 e2 e3 - e3 e0 e1 e2 = 2 e0 e1 e2 e3 is not a vector
    with pytest.raises(ValueError, match="does not preserve grade 1"):
        ad_differential(Multivector.blade(8, [0, 1, 2]))


@st.composite
def skew_matrices(draw):
    """A SkewMatrix on n = 1..8 over d = 1..12, its entries int or Fraction."""
    n = draw(st.integers(min_value=1, max_value=8))
    d = draw(st.integers(min_value=1, max_value=12))
    entry = st.integers(-9, 9) | st.fractions(min_value=-9, max_value=9, max_denominator=6)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(entry)
            rows[j][i] = -rows[i][j]
    return SkewMatrix((d, rows))


@settings(max_examples=150, deadline=None)
@given(skew_matrices())
@example(SkewMatrix((6, [[0, Fraction(5, 4), 3], [Fraction(-5, 4), 0, 0], [-3, 0, 0]])))
def test_lie_lift_matches_the_both_triangle_oracle(a):
    """Reading each pair i < j once gives, in lowest terms, the bivector that
    the sum over both triangles gives."""
    assert lie_lift(a) == both_triangles_lie_lift(a)


def test_random_spin_contract():
    z1 = random_spin(8, 2, 7)
    z2 = random_spin(8, 2, 7)
    assert z1.value == z2.value
    assert z1.value * z1.value.reverse() == Multivector.scalar(8, 1)
    assert random_spin(8, 2, 8).value != z1.value
    with pytest.raises(ValueError):
        random_spin(8, 0, 1)


_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17))


@st.composite
def spin_candidates(draw):
    """Even and odd elements on both sides of each SpinElement check.

    (a + b e_S)/c with a^2 + b^2 = c^2 is a spin element when |S| = 2, fails
    zeta * reverse(zeta) = 1 when |S| is 4 or 8, and passes that check but
    not grade-1 preservation when |S| = 6.  The 4- and 8-blade tilts have
    sum c_S^2 = 1, so only the dense product tells their message apart.
    The zero multivector fails zeta * reverse(zeta) = 1.
    """
    kind = draw(st.sampled_from(["spin", "blade", "odd", "scaled", "perturbed", "zero"]))
    n = draw(st.integers(min_value=6 if kind == "blade" else 1, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    zeta = random_spin(n, rng.choice([1, 2]), rng.randrange(10**6)).value
    if kind == "blade":
        a, b, c = rng.choice(_TRIPLES)
        grade = draw(st.sampled_from([k for k in (2, 4, 6, 8) if k <= n]))
        mask = rng.choice([m for m in range(1 << n) if m.bit_count() == grade])
        tilt = Multivector(n, {0: Fraction(a, c)}) + Multivector(n, {mask: Fraction(b, c)})
        return tilt * zeta if draw(st.booleans()) else tilt
    if kind == "odd":
        return zeta * Multivector.basis_vector(n, rng.randrange(n))
    if kind == "scaled":
        return zeta * Fraction(rng.choice([2, 3, -1, -2]), rng.choice([1, 3]))
    if kind == "zero":
        return Multivector(n)
    if kind == "perturbed":
        mask = rng.choice([m for m in range(1 << n) if not m.bit_count() & 1])
        return zeta + Multivector(n, {mask: Fraction(rng.choice([-1, 1]), rng.randint(1, 9))})
    return zeta


def _rejection(check, value):
    try:
        check(value)
    except InvalidSpinElementError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(spin_candidates())
def test_spin_checks_match_fraction_oracles(value):
    """SpinElement accepts and rejects exactly what the Fraction checks do,
    with the same message, and adjoint_action agrees with the full
    conjugation products on every accepted element."""
    verdict = _rejection(SpinElement, value)
    assert verdict == _rejection(fraction_spin_validate, value)
    if verdict is None:
        got = adjoint_action(SpinElement(value)).entries
        assert fraction_view(got) == fraction_adjoint_action(value)


# 5/4 + 3/4 omega, omega the pseudoscalar, is central in Cl(0,3) and Cl(0,7)
# (e0e1e2 in Cl(0,3)) and has unit norm, since reverse(omega) = -omega and
# omega^2 = 1 there, so conjugation by it is the identity although it is
# neither even nor odd
_CENTRAL = tuple(Multivector(n, {0: Fraction(5, 4), (1 << n) - 1: Fraction(3, 4)}) for n in (3, 7))


def _random_terms(rng, n, parity):
    """A few rational coefficients on blades of the given grade parity, or of
    both parities for parity None."""
    masks = [m for m in range(1 << n) if parity is None or m.bit_count() & 1 == parity]
    return Multivector(
        n, {rng.choice(masks): Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4)}
    )


_CONJUGATION_KINDS = ("spin", "product", "even", "odd", "mixed", "central", "zero", "flipped")
# the kinds SpinElement sends to spingroup._conjugated_basis: even, with
# sum c_S^2 = d^2
_KERNEL_DOMAIN = ("spin", "product", "flipped")


@st.composite
def conjugation_inputs(draw, kinds=_CONJUGATION_KINDS):
    """Spin elements for n = 1..8 and their products, non-unit even, odd and
    mixed-parity elements, the central cases and zero, and spin elements with
    one coefficient negated: even, with sum c_S^2 = d^2 still, so only the
    grade-1 identity can reject them.  A spin element is a product of up to
    8 unit vectors, so for n = 8 it reaches grades 6 and 8 as well, as the
    dense lifts do.  ``kinds`` picks a subset."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    zeta = random_spin(n, rng.randint(1, 4), rng.randrange(10**6)).value
    if kind == "product":
        return zeta * random_spin(n, rng.randint(1, 4), rng.randrange(10**6)).value
    if kind == "even":
        if rng.random() < 0.5:
            return zeta * Fraction(rng.choice([2, 3, -2]), rng.choice([1, 3, 5]))
        return zeta + _random_terms(rng, n, 0)
    if kind == "odd":
        if rng.random() < 0.5:
            # an odd versor: its images are vectors, but reverse(zeta) = -zeta^{-1}
            return zeta * rational_unit_vector(n, rng)
        return _random_terms(rng, n, 1)
    if kind == "mixed":
        return zeta + _random_terms(rng, n, None)
    if kind == "central":
        return rng.choice(_CENTRAL)
    if kind == "zero":
        return Multivector(n)
    if kind == "flipped":
        return _flipped(zeta, rng.choice(sorted(zeta.terms)))
    return zeta


def _flipped(zeta, mask):
    """zeta with the coefficient of the blade mask negated."""
    return zeta - 2 * Multivector(zeta.n, {mask: Fraction(zeta.terms[mask], zeta.d)})


# (3 + 4 omega)/5, omega the pseudoscalar of Cl(0,n) for even n: even, with
# sum c_S^2 = 1, and omega anticommutes with every e_j, so it is no spin element
def _pythagorean_tilt(n):
    return Multivector(n, {0: Fraction(3, 5), (1 << n) - 1: Fraction(4, 5)})


# a spinor-type lift: all 128 even blades of Cl(0,8), grades 0 to 8
_DENSE_LIFT = iota_plus(build_cl8_rep(), random_spin(7, 2, 11)).value


def _basis_or_error(kernel, value):
    try:
        dd, cols = kernel(value)
    except Exception as exc:
        return type(exc), str(exc)
    return dd, [list(col) for col in cols]


@settings(max_examples=200, deadline=None)
@given(conjugation_inputs(_KERNEL_DOMAIN))
@example(_pythagorean_tilt(4))
@example(_pythagorean_tilt(8))
@example(_DENSE_LIFT)
@example(_flipped(_DENSE_LIFT, 0b11111111))
@example(random_spin(1, 1, 0).value)
@example(random_spin(2, 2, 3).value)
@example(Multivector.scalar(8, -1))
@example(random_spin(8, 1, 7).value)
def test_conjugated_basis_matches_blade_loop(value):
    """On the even elements with sum c_S^2 = d^2 that SpinElement sends it,
    the pair-product kernel returns the blade loop's (d^2, cols), or raises
    its exception with its message: on dense spinor-type lifts, which hold
    every even blade, for n = 1 and 2, with no blade pair or one, and on a
    scalar and a grade-2 element, which read only their reachable blades."""
    got = _basis_or_error(spingroup._conjugated_basis, value)
    assert got == _basis_or_error(loop_conjugated_basis, value)


def test_pair_tables_are_built_on_first_use():
    """In a fresh interpreter, importing the verify stack and building the
    Cl(0,8) module builds no conjugation table, so the tables stay off
    set-up and cold start; the first spin element builds the one for its n."""
    src = Path(spingroup.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import spinkit.verify\n"
        "from spinkit.gammarep import build_cl8_rep\n"
        "from spinkit.multivector import Multivector\n"
        "from spinkit.spingroup import SpinElement, _pair_tables\n"
        "build_cl8_rep()\n"
        "print(_pair_tables.cache_info().currsize)\n"
        "SpinElement(Multivector.scalar(8, 1))\n"
        "print(_pair_tables.cache_info().currsize)\n"
    )
    # -I: no environment paths; -B: the child leaves no bytecode behind
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"]


@settings(max_examples=100, deadline=None)
@given(conjugation_inputs())
def test_one_sided_products_have_scalar_gram(value):
    """Rows of X and Y, built from integer_product, satisfy
    X X^T = Y Y^T = s I with s = sum c_S^2: the lemma that turns the
    grade-1 check into one integer identity."""
    s = sum(c * c for c in value.terms.values())
    s_identity = tuple(tuple(s * x for x in row) for row in la.identity(value.n))
    for rows in one_sided_product_rows(value):
        assert tuple(tuple(sum(map(mul, a, b)) for b in rows) for a in rows) == s_identity


def test_grade_one_identity_rejects_even_unit_sum_elements():
    """Even elements with sum c_S^2 = d^2 that are no spin elements: the
    pseudoscalar tilts and spin elements with one coefficient negated.  The
    identity rejects each, as the blade loop does, and SpinElement rejects
    each with the Fraction oracle's message: the norm message, except for
    n = 6, where omega^2 = -1 makes the tilt a unit."""
    values = [_pythagorean_tilt(n) for n in (4, 6, 8)]
    values += [_flipped(random_spin(8, 2, seed).value, 0) for seed in range(10)]
    for value in values:
        for kernel in (spingroup._conjugated_basis, loop_conjugated_basis):
            with pytest.raises(InvalidSpinElementError, match="does not preserve grade 1"):
                kernel(value)
        verdict = _rejection(SpinElement, value)
        assert verdict is not None and verdict == _rejection(fraction_spin_validate, value)


def test_central_and_zero_conjugation():
    """SpinElement rejects the mixed-parity central elements, whose
    conjugation is the identity, as not even, and zero by its norm."""
    for value in _CENTRAL:
        with pytest.raises(InvalidSpinElementError, match="must be even"):
            SpinElement(value)
    for n in (1, 8):
        with pytest.raises(InvalidSpinElementError, match=re.escape(spingroup._NORM_MESSAGE)):
            SpinElement(Multivector(n))


def test_conjugation_kernel_sees_only_its_domain(rep, monkeypatch):
    """Every element the verify suites and SpinElement's rejections send to
    _conjugated_basis is even with sum c_S^2 = d^2, the domain on which
    |V|^2 = n d^4 is the grade-1 check."""
    seen = []
    real = spingroup._conjugated_basis

    def recording(zeta):
        seen.append(zeta)
        return real(zeta)

    monkeypatch.setattr(spingroup, "_conjugated_basis", recording)
    for seed in range(3):
        assert all(x.passed for x in run_suites("spin", seed))
        assert all(x.passed for x in run_suites("reps", seed, rep))
    zeta = random_spin(8, 2, 5).value
    accepted = len(seen)
    rejected = [
        *_CENTRAL,
        Multivector(8),
        zeta * Multivector.basis_vector(8, 3),
        zeta * 2,
        zeta + Multivector.scalar(8, Fraction(1, 3)),
        _flipped(zeta, 0),
        *(_pythagorean_tilt(n) for n in (4, 6, 8)),
    ]
    for value in rejected:
        with pytest.raises(InvalidSpinElementError):
            SpinElement(value)
    # only the flipped element and the three tilts pass the first two checks
    assert len(seen) == accepted + 4
    for value in seen:
        assert not any(blade_grade(m) & 1 for m in value.terms)
        assert sum(c * c for c in value.terms.values()) == value.d**2


def test_validation_forms_no_dense_product(rep, monkeypatch):
    """Validating a dense lifted Spin(8) element never calls
    Multivector.__mul__: the unit norm follows from sum c_S^2 = 1 and the
    grade-1 certificate, not from the product zeta * reverse(zeta)."""
    calls = []
    real = Multivector.__mul__

    def counting(a, b):
        calls.append(b)
        return real(a, b)

    for seed in range(3):
        zeta = random_spin(7, 2, seed)
        monkeypatch.setattr(Multivector, "__mul__", counting)
        lifted = iota_plus(rep, zeta)
        checked = SpinElement(lifted.value)
        monkeypatch.setattr(Multivector, "__mul__", real)
        assert len(lifted.value.terms) > 64
        assert calls == []
        assert checked.value * checked.value.reverse() == Multivector.scalar(8, 1)


def _pythagorean_rotation(n, rng):
    """A product of rotations by Pythagorean angles in random coordinate
    planes.  Its spinor norm is a square for some draws and not for others."""
    d, r = 1, la.identity(n)
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        a, b, c = rng.choice(_TRIPLES)
        g = [[c * x for x in row] for row in la.identity(n)]  # over c
        g[i][i] = g[j][j] = a
        g[i][j], g[j][i] = -b, b
        d, r = la.exact(d * c, la.mat_mul(r, g))
    return RotationMatrix((d, r))


def _lift_or_error(lift, rotation):
    try:
        return lift(rotation)
    except LiftError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
)
def test_lift_matches_fraction_reflection_oracle(n, k, seed, pythagorean):
    """The integer lift equals the Fraction-reflection lift, and raises
    LiftError with the same message where that one does."""
    if pythagorean:
        rotation = _pythagorean_rotation(n, random.Random(seed))
    else:
        rotation = adjoint_action(random_spin(n, k, seed))
    got = _lift_or_error(lambda r: lift_rotation(r).value, rotation)
    assert got == _lift_or_error(fraction_lift_rotation, rotation)
    if not isinstance(got, str):
        assert adjoint_action(lift_rotation(rotation)).entries == rotation.entries


def test_lift_error_cases_match_the_oracle():
    rng = random.Random(4)
    rotations = [_pythagorean_rotation(n, rng) for n in (3, 5, 8) for _ in range(6)]
    messages = {_lift_or_error(fraction_lift_rotation, r) for r in rotations}
    assert "rotation has no rational spin lift (spinor norm is not a square)" in messages
    for r in rotations:
        assert _lift_or_error(lambda x: lift_rotation(x).value, r) == _lift_or_error(
            fraction_lift_rotation, r
        )
    # an orientation-reversing matrix that skipped the RotationMatrix checks
    swap = object.__new__(RotationMatrix)
    object.__setattr__(swap, "entries", (1, ((0, 1, 0), (1, 0, 0), (0, 0, 1))))
    for lift in (lift_rotation, fraction_lift_rotation):
        with pytest.raises(LiftError, match="odd reflection count"):
            lift(swap)


def test_empty_rotation_matrix_is_rejected():
    with pytest.raises(ValueError, match="at least 1x1"):
        RotationMatrix((1, ()))


@pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]], [[]]], ids=repr)
def test_non_square_rotation_matrix_is_rejected(rows):
    """rows^T rows of an m x n matrix is n x n, so it differs from the m x m
    d^2 I whenever m != n, even for orthonormal columns."""
    with pytest.raises(ValueError, match="^matrix is not orthogonal$"):
        RotationMatrix((1, rows))


@pytest.mark.parametrize(
    "build, kind",
    [
        # 0.1 is not 1/10: Fraction(0.1) would keep the binary expansion
        pytest.param(lambda: SkewMatrix((1, [[0, 0.1], [-0.1, 0]])), "float", id="skew-float"),
        pytest.param(lambda: RotationMatrix((1, [[1.0, 0], [0, 1]])), "float", id="rotation-float"),
        pytest.param(lambda: RotationMatrix((1, [["1", 0], [0, True]])), "str", id="rotation-str"),
        pytest.param(lambda: RotationMatrix((1, [[True, 0], [0, 1]])), "bool", id="rotation-bool"),
        pytest.param(lambda: SkewMatrix((1, [[0, "3"], ["-3", 0]])), "str", id="skew-str"),
        pytest.param(
            lambda: SkewMatrix((1, [[0, Decimal("0.1")], [Decimal("-0.1"), 0]])), "Decimal",
            id="skew-Decimal",
        ),
        pytest.param(
            lambda: stabilizer_dimensions(build_cl8_rep(), [["1"] + [0] * 7]), "str",
            id="spinor-str",
        ),
        pytest.param(lambda: SpinElement(5), "int", id="spin-element-int"),
        pytest.param(lambda: adjoint_action(Multivector.scalar(3, 1)), "Multivector",
                     id="adjoint-multivector"),
        pytest.param(lambda: iota_vector(Multivector.scalar(7, 1)), "Multivector",
                     id="iota-vector-multivector"),
        pytest.param(lambda: iota_plus(build_cl8_rep(), Multivector.scalar(7, 1)), "Multivector",
                     id="iota-plus-multivector"),
        pytest.param(lambda: lift_rotation((1, ((1, 0), (0, 1)))), "tuple", id="lift-tuple"),
    ],
)
def test_float_entries_rejected(build, kind):
    with pytest.raises(TypeError, match=f"not {kind}$"):
        build()


def test_fraction_entries_are_held_over_one_denominator():
    half = Fraction(1, 2)
    exact = SkewMatrix((1, [[0, half], [-half, 0]]))
    assert exact.entries == (2, ((0, 1), (-1, 0)))
    assert SkewMatrix((4, [[0, 2], [-2, 0]])) == exact


def test_checked_elements_keep_their_columns(monkeypatch):
    """Every spin element is built by its certifying constructor: z, -z,
    z * z and a lift each compute the grade-1 columns once, when they are
    built, and adjoint_action reuses them without computing any."""
    calls = []
    real = spingroup._conjugated_basis

    def counting(zeta):
        calls.append(zeta)
        return real(zeta)

    monkeypatch.setattr(spingroup, "_conjugated_basis", counting)
    z = random_spin(6, 2, 12)
    assert calls == [z.value]
    rot = adjoint_action(z)
    assert fraction_view(rot.entries) == fraction_adjoint_action(z.value)
    minus = -z
    assert calls == [z.value, -z.value]
    assert adjoint_action(minus).entries == rot.entries
    square = z * z
    assert calls == [z.value, -z.value, square.value]
    assert fraction_view(adjoint_action(square).entries) == fraction_adjoint_action(square.value)
    d, r = rot.entries
    assert adjoint_action(square).entries == la.exact(d * d, la.mat_mul(r, r))
    lifted = lift_rotation(rot)
    assert calls == [z.value, -z.value, square.value, lifted.value]
    assert adjoint_action(lifted).entries == rot.entries
    assert len(calls) == 4
