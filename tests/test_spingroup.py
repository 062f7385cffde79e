"""Spin group: conjugation cover, reflections, lifting, Lie algebra section."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinkit.exactlinalg as la
import spinkit.spingroup as spingroup
from conftest import fraction_adjoint_action, fraction_lift_rotation, fraction_spin_validate
from spinkit.errors import InvalidSpinElementError, LiftError
from spinkit.gammarep import iota_plus
from spinkit.multivector import Multivector, volume_element
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


def test_spin_element_invariants():
    with pytest.raises(InvalidSpinElementError):
        SpinElement(Multivector.basis_vector(8, 0))  # odd
    with pytest.raises(InvalidSpinElementError):
        SpinElement(Multivector.blade(8, [0, 1], 2))  # norm 4 != 1
    z = SpinElement(Multivector.blade(8, [0, 1]))
    assert z.value * z.value.reverse() == Multivector.scalar(8, 1)
    # (3 + 4 e0...e5)/5 is even with zeta * reverse(zeta) = 1, but it sends
    # e0 to a vector plus a 5-vector
    tilted = Multivector(6, {0: Fraction(3, 5), 0b111111: Fraction(4, 5)})
    assert tilted * tilted.reverse() == Multivector.scalar(6, 1)
    with pytest.raises(InvalidSpinElementError, match="grade 1"):
        SpinElement(tilted)
    with pytest.raises(InvalidSpinElementError, match="grade 1"):
        adjoint_action(SpinElement(tilted, check=False))


def test_adjoint_of_minus_one_is_identity():
    for n in (3, 7, 8):
        z = SpinElement(Multivector.scalar(n, -1), check=False)
        assert adjoint_action(z).entries == la.identity(n)


def test_adjoint_of_plane_bivector_is_half_turn():
    z = SpinElement(Multivector.blade(8, [1, 2]))
    r = adjoint_action(z).entries
    for j in range(8):
        want = Fraction(-1) if j in (1, 2) else Fraction(1)
        assert r[j][j] == want
    assert sum(1 for i in range(8) for j in range(8) if r[i][j] and i != j) == 0


def test_adjoint_is_rotation_on_random_elements():
    for seed in range(20):
        z = random_spin(8, 2, seed)
        rot = adjoint_action(z)  # RotationMatrix validates orthogonality, det +1
        assert la.det(rot.entries) == 1


def test_adjoint_homomorphism_and_two_to_one():
    rng = random.Random(0)
    for _ in range(8):
        n = rng.choice([3, 7, 8])
        z1 = random_spin(n, 1, rng.randrange(10**6))
        z2 = random_spin(n, 2, rng.randrange(10**6))
        assert adjoint_action(z1 * z2).entries == la.mat_mul(
            adjoint_action(z1).entries, adjoint_action(z2).entries
        )
        assert adjoint_action(-z1).entries == adjoint_action(z1).entries
        if z1.value not in (Multivector.scalar(n, 1), Multivector.scalar(n, -1)):
            assert adjoint_action(z1).entries != la.identity(n)


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
    v = Multivector.vector(8, [2, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(InvalidSpinElementError):
        reflect(v, Multivector.basis_vector(8, 1))


def test_lift_identity_and_sign_canonicalization():
    ident = RotationMatrix(la.identity(8))
    z = lift_rotation(ident)
    assert z.value == Multivector.scalar(8, 1)
    half_turn = la.mat(
        [[-1 if i == j and i < 2 else (1 if i == j else 0) for j in range(8)] for i in range(8)]
    )
    z = lift_rotation(RotationMatrix(half_turn))
    assert z.value in (Multivector.blade(8, [0, 1]), -Multivector.blade(8, [0, 1]))
    first = min(z.value.terms)
    assert z.value.terms[first] > 0
    assert adjoint_action(z).entries == half_turn


def test_lift_of_minus_identity_is_volume_element():
    minus = la.mat([[-1 if i == j else 0 for j in range(8)] for i in range(8)])
    assert lift_rotation(RotationMatrix(minus)).value == volume_element(8)


def test_lift_roundtrip_on_random_rotations():
    for seed in (1, 2, 3, 4, 5):
        for n in (3, 7, 8):
            z = random_spin(n, 2, seed)
            rot = adjoint_action(z)
            lifted = lift_rotation(rot)
            assert adjoint_action(lifted).entries == rot.entries
            assert lifted.value in (z.value, (-z).value)


def test_lift_rejects_orientation_reversal():
    refl = la.mat([[-1 if i == j == 0 else (1 if i == j else 0) for j in range(8)] for i in range(8)])
    with pytest.raises(ValueError):
        RotationMatrix(refl)  # det -1 rejected at the type level
    swap = la.mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        lift_rotation(RotationMatrix(swap))


def test_lift_rejects_irrational_spinor_norm():
    # rotation by acos(3/5): its lift needs sqrt(4/5), not rational
    r = la.mat(
        [
            [Fraction(3, 5), Fraction(-4, 5), 0],
            [Fraction(4, 5), Fraction(3, 5), 0],
            [0, 0, 1],
        ]
    )
    with pytest.raises(LiftError):
        lift_rotation(RotationMatrix(r))


def test_even_reflection_count_matches_adjoint():
    rng = random.Random(11)
    for n in (3, 8):
        v1 = rational_unit_vector(n, rng)
        v2 = rational_unit_vector(n, rng)
        z = SpinElement(v1 * v2, check=False)
        x = rational_unit_vector(n, rng)
        composed = reflect(v1, reflect(v2, x))
        assert composed == z.value * x * z.value.reverse()


def test_lie_lift_inverts_ad_differential():
    rng = random.Random(2)
    elementary = [[0] * 8 for _ in range(8)]
    elementary[0][1], elementary[1][0] = 1, -1
    b = lie_lift(SkewMatrix(la.mat(elementary)))
    assert b == Multivector.blade(8, [0, 1], Fraction(-1, 2))
    assert ad_differential(b).entries == la.mat(elementary)
    for _ in range(20):
        n = rng.choice([4, 7, 8])
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                entries[i][j] = rng.randint(-6, 6)
                entries[j][i] = -entries[i][j]
        a = SkewMatrix(la.mat(entries))
        assert ad_differential(lie_lift(a)).entries == a.entries
    assert lie_lift(SkewMatrix(la.mat([[0] * 8 for _ in range(8)]))).terms == {}


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
        assert adjoint_action(SpinElement(value)).entries == fraction_adjoint_action(value)


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
    r = la.identity(n)
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        a, b, c = rng.choice(_TRIPLES)
        g = [list(row) for row in la.identity(n)]
        g[i][i] = g[j][j] = Fraction(a, c)
        g[i][j], g[j][i] = Fraction(-b, c), Fraction(b, c)
        r = la.mat_mul(r, la.mat(g))
    return RotationMatrix(r)


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
    object.__setattr__(swap, "entries", la.mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    for lift in (lift_rotation, fraction_lift_rotation):
        with pytest.raises(LiftError, match="odd reflection count"):
            lift(swap)


def test_empty_rotation_matrix_is_rejected():
    with pytest.raises(ValueError):
        RotationMatrix(())


def test_float_entries_rejected():
    # 0.1 is not 1/10: Fraction(0.1) would keep the binary expansion
    with pytest.raises(TypeError, match="not float"):
        SkewMatrix([[0, 0.1], [-0.1, 0]])
    with pytest.raises(TypeError, match="not float"):
        RotationMatrix([[1.0, 0], [0, 1]])
    half = Fraction(1, 2)
    exact = SkewMatrix([[0, half], [-half, 0]])
    assert exact.entries[0][1] is half


def test_checked_elements_keep_their_columns(monkeypatch):
    """_validate computes the grade-1 columns once; adjoint_action reuses
    them, also for -zeta.  Unchecked elements compute theirs on demand and
    a bad one still raises."""
    calls = []
    real = spingroup._conjugated_basis

    def counting(zeta):
        calls.append(zeta)
        return real(zeta)

    monkeypatch.setattr(spingroup, "_conjugated_basis", counting)
    z = random_spin(6, 2, 12)
    assert len(calls) == 1
    rot = adjoint_action(z)
    assert adjoint_action(-z).entries == rot.entries == fraction_adjoint_action(z.value)
    assert len(calls) == 1
    lifted = lift_rotation(rot)
    assert len(calls) == 2
    assert adjoint_action(lifted).entries == rot.entries
    assert len(calls) == 2

    unchecked = SpinElement(z.value * z.value, check=False)
    assert len(calls) == 2
    assert adjoint_action(unchecked).entries == fraction_adjoint_action(unchecked.value)
    assert adjoint_action(unchecked).entries == la.mat_mul(rot.entries, rot.entries)
    assert len(calls) == 3

    tilted = SpinElement(Multivector(6, {0: Fraction(3, 5), 0b111111: Fraction(4, 5)}), check=False)
    for _ in range(2):
        with pytest.raises(InvalidSpinElementError, match="grade 1"):
            adjoint_action(tilted)
        with pytest.raises(InvalidSpinElementError, match="grade 1"):
            adjoint_action(-tilted)
