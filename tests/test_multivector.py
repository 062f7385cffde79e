"""Clifford algebra core: products, involutions, volume elements, embedding.

Expected values for the sign-sensitive cases are frozen from an
independent brute-force oracle that multiplies blades as index sequences:
bubble-sort to canonical order counting transpositions, cancel adjacent
repeats with a factor -1 each.
"""

import random
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_mul, fraction_terms, integer_vector_part, loop_p_iso
from spinkit.errors import DimensionMismatchError, UnsupportedDimensionError
from spinkit.multivector import (
    Multivector,
    chiral_projectors,
    p_iso,
    volume_element,
)
from spinkit.spingroup import random_spin


def oracle_blade_product(a_indices, b_indices):
    """Sign-of-permutation blade multiplication oracle."""
    seq = list(a_indices) + list(b_indices)
    sign = 1
    while True:
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                break
            if seq[i] == seq[i + 1]:
                del seq[i : i + 2]
                sign = -sign  # e_i e_i = -1
                break
        else:
            return tuple(seq), sign


def mask_to_indices(mask):
    return tuple(i for i in range(8) if mask >> i & 1)


def test_blade_product_matches_oracle_exhaustively():
    blades = [Multivector(8, {a: 1}) for a in range(256)]
    for a in range(256):
        for b in range(256):
            ((mask, sign),) = (blades[a] * blades[b]).terms.items()
            want_idx, want_sign = oracle_blade_product(mask_to_indices(a), mask_to_indices(b))
            assert mask_to_indices(mask) == want_idx
            assert sign == want_sign


def e(n, i):
    return Multivector.basis_vector(n, i)


def test_generator_square_is_minus_one():
    assert e(8, 1) * e(8, 1) == Multivector.scalar(8, -1)


def test_orthogonal_generators_anticommute():
    assert e(8, 1) * e(8, 2) == Multivector.blade(8, [1, 2])
    assert e(8, 2) * e(8, 1) == -Multivector.blade(8, [1, 2])


def test_bivector_product_frozen_from_oracle():
    # (e1 e2)(e2 e3) = -e1 e3, computed with oracle_blade_product((1,2),(2,3))
    assert oracle_blade_product((1, 2), (2, 3)) == ((1, 3), -1)
    e12, e23 = Multivector.blade(8, [1, 2]), Multivector.blade(8, [2, 3])
    assert e12 * e23 == -Multivector.blade(8, [1, 3])


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        e(7, 0) * e(8, 0)


@pytest.mark.parametrize(
    "build, kind",
    [
        pytest.param(lambda: Multivector(8, {0: 0.5}), "float", id="float"),
        pytest.param(lambda: Multivector(8, {0: "1/2", 3: True}), "str", id="str"),
        pytest.param(lambda: Multivector(8, {0: Fraction(1, 2), 3: True}), "bool", id="bool"),
        pytest.param(lambda: Multivector(8, {0: Decimal("0.1")}), "Decimal", id="Decimal"),
        pytest.param(lambda: Multivector(2, {True: 1}), "bool", id="bool-mask"),
        pytest.param(lambda: Multivector(2, {1.0: 1}), "float", id="float-mask"),
        pytest.param(lambda: Multivector.scalar(2, 3) * True, "bool", id="times-bool"),
        pytest.param(lambda: True * Multivector.scalar(2, 3), "bool", id="bool-times"),
        pytest.param(lambda: Multivector.scalar(2, 3) * 0.5, "float", id="times-float"),
        pytest.param(lambda: 0.5 * Multivector.scalar(2, 3), "float", id="float-times"),
        pytest.param(lambda: Multivector.scalar(2, 3) * "2", "str", id="times-str"),
        pytest.param(lambda: Multivector.scalar(2, 3) + 1, "int", id="plus-int"),
        pytest.param(lambda: Multivector.scalar(2, 3) + True, "bool", id="plus-bool"),
        pytest.param(lambda: Multivector.scalar(2, 3) - 0.5, "float", id="minus-float"),
        pytest.param(lambda: Multivector.scalar(2, 3) - "2", "str", id="minus-str"),
        pytest.param(lambda: Multivector(2.0, {0: 1}), "float", id="float-n"),
        pytest.param(lambda: Multivector(True, {0: 1}), "bool", id="bool-n"),
        pytest.param(lambda: Multivector.basis_vector(8, True), "bool", id="bool-index"),
        pytest.param(lambda: Multivector.basis_vector(8, 1.0), "float", id="float-index"),
        pytest.param(lambda: Multivector.blade(8, [0, True]), "bool", id="blade-bool-index"),
        pytest.param(lambda: Multivector.blade(8, [1.0]), "float", id="blade-float-index"),
    ],
)
def test_float_coefficients_rejected(build, kind):
    """Coefficients, blade masks and scalar factors must be exact ints or
    Fractions (masks, generator indices and the generator count ints), bool
    excluded, and a sum or difference takes Multivectors only; nothing is
    coerced."""
    with pytest.raises(TypeError, match=f"not {kind}$"):
        build()


@pytest.mark.parametrize(
    "n, terms, error, message",
    [
        pytest.param(8, {3: 1, -1: 1}, ValueError, "blade mask -0x1 uses generators beyond n=8", id="negative"),
        pytest.param(3, {7: 1, 8: 1}, ValueError, "blade mask 0x8 uses generators beyond n=3", id="2^n"),
        pytest.param(8, {0x300: 1, 1.5: 1}, ValueError, "blade mask 0x300 uses generators beyond n=8",
                     id="range-then-type"),
        pytest.param(8, {1.5: 1, 0x300: 1}, TypeError, "blade masks must be int, not float", id="type-then-range"),
        pytest.param(2, {4: 0.5}, ValueError, "blade mask 0x4 uses generators beyond n=2", id="mask-then-coefficient"),
    ],
)
def test_the_constructor_names_the_first_bad_mask(n, terms, error, message):
    """Masks are checked in insertion order, before any coefficient: the
    first bad one is named with its own error kind, TypeError for a mask
    that is not an int and ValueError for one outside 0 .. 2^n - 1."""
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        Multivector(n, terms)
    assert caught.type is error


def test_grade_involution_values():
    one = Multivector.scalar(7, 1)
    assert one.grade_involution() == one
    assert e(7, 1).grade_involution() == -e(7, 1)
    assert volume_element(7).grade_involution() == -volume_element(7)
    assert volume_element(8).grade_involution() == volume_element(8)


def test_reverse_values():
    # reversal of e1 e2 e3 flips sign: 3 indices reverse in 3 transpositions... sign -1
    assert oracle_blade_product((3, 2, 1), ()) == ((1, 2, 3), -1)
    assert Multivector.blade(8, [1, 2]).reverse() == -Multivector.blade(8, [1, 2])
    assert Multivector.blade(8, [1, 2, 3]).reverse() == -Multivector.blade(8, [1, 2, 3])


def test_product_of_unit_vectors_inverts_by_reversal():
    rng = random.Random(3)
    from spinkit.spingroup import rational_unit_vector

    for n in (3, 7, 8):
        factors = [rational_unit_vector(n, rng) for _ in range(4)]
        zeta = Multivector.scalar(n, 1)
        for v in factors:
            zeta = zeta * v
        assert zeta * zeta.reverse() == Multivector.scalar(n, 1)


def test_p_iso_values():
    assert p_iso(Multivector.scalar(7, 1)) == Multivector.scalar(8, 1)
    assert p_iso(e(7, 0)) == Multivector.blade(8, [0, 1])
    assert p_iso(e(7, 1)) == e(8, 0) * e(8, 2)
    # even input: index-shifted inclusion, oracle e0 e2 e0 e3 = e2 e3
    lhs = e(8, 0) * e(8, 2) * e(8, 0) * e(8, 3)
    assert lhs == Multivector.blade(8, [2, 3])
    assert p_iso(Multivector.blade(7, [1, 2])) == Multivector.blade(8, [2, 3])


def test_p_iso_closed_form_matches_generator_products():
    """Every blade of Cl(0,n), n = 1..7, goes to the image the product of
    its generators' images gives, with sign +1."""
    for n in range(1, 8):
        for mask in range(1 << n):
            blade = Multivector(n, {mask: Fraction(-3, 7)})
            image = p_iso(blade)
            assert image == loop_p_iso(blade)
            assert fraction_terms(image) == {(mask << 1) | (mask.bit_count() & 1): Fraction(-3, 7)}
    rng = random.Random(8)
    for n in range(1, 8):
        a = Multivector(n, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for m in range(1 << n)})
        assert p_iso(a) == loop_p_iso(a)


def test_p_iso_rejects_cl8():
    with pytest.raises(UnsupportedDimensionError):
        p_iso(Multivector.scalar(8, 1))


def test_volume_elements():
    w7, w8 = volume_element(7), volume_element(8)
    assert w7 * w7 == Multivector.scalar(7, 1)
    assert w8 * w8 == Multivector.scalar(8, 1)
    for i in range(7):
        assert w7 * e(7, i) == e(7, i) * w7
    v = Multivector(8, {1 << i: c for i, c in enumerate([1, -2, 3, 0, 5, 0, 7, 11])})
    assert w8 * v == -(v * w8)


def test_chiral_projectors():
    plus, minus = chiral_projectors()
    one = Multivector.scalar(7, 1)
    assert plus + minus == one
    assert plus * plus == plus
    assert minus * minus == minus
    assert plus * minus == Multivector(7, {})


# -- property-based laws ----------------------------------------------------

@st.composite
def multivectors(draw, n=None):
    n = n if n is not None else draw(st.integers(min_value=1, max_value=8))
    size = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(size):
        mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        num = draw(st.integers(min_value=-8, max_value=8))
        den = draw(st.integers(min_value=1, max_value=5))
        terms[mask] = Fraction(num, den)
    return Multivector(n, terms)


@st.composite
def multivector_triples(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    return tuple(draw(multivectors(n=n)) for _ in range(3))


@settings(max_examples=60, deadline=None)
@given(multivector_triples())
def test_associativity_and_distributivity(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(multivector_triples())
def test_involution_laws(triple):
    a, b, _ = triple
    assert (a * b).grade_involution() == a.grade_involution() * b.grade_involution()
    assert (a * b).reverse() == b.reverse() * a.reverse()
    assert a.grade_involution().grade_involution() == a
    assert a.reverse().reverse() == a


@settings(max_examples=40, deadline=None)
@given(multivector_triples())
def test_p_iso_is_multiplicative(triple):
    a, b, _ = triple
    if a.n == 8:
        return
    image = p_iso(a * b)
    assert image == p_iso(a) * p_iso(b)
    assert all(bin(m).count("1") % 2 == 0 for m in image.terms)


# -- the integer product against the Fraction oracle --------------------------

_DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 12, 25, 49, 1001, 65536)


@st.composite
def rational_multivectors(draw, n):
    """Sparse to dense elements of Cl(0,n) with mixed denominators."""
    size = draw(st.integers(min_value=0, max_value=min(1 << n, 48)))
    terms = {}
    for _ in range(size):
        mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        num = draw(st.integers(min_value=-10**6, max_value=10**6))
        terms[mask] = Fraction(num, draw(st.sampled_from(_DENOMINATORS)))
    return Multivector(n, terms)


@st.composite
def product_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    if n == 8 and draw(st.booleans()):
        # dense Spin(8) elements: about 64 terms, denominators up to ~1e6
        seeds = st.integers(min_value=0, max_value=10**6)
        return random_spin(8, 2, draw(seeds)).value, random_spin(8, 2, draw(seeds)).value
    return draw(rational_multivectors(n)), draw(rational_multivectors(n))


def _is_canonical(a):
    """The one exact form: an int d > 0 and nonzero int numerators on blades
    of Cl(0,n), with gcd 1."""
    return (
        type(a.d) is int
        and a.d > 0
        and all(
            type(mask) is int and 0 <= mask < 1 << a.n and type(c) is int and c
            for mask, c in a.terms.items()
        )
        and gcd(a.d, *a.terms.values()) == 1
    )


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_product_matches_fraction_oracle(pair):
    a, b = pair
    want = fraction_mul(a, b)
    product = a * b
    assert fraction_terms(product) == want
    assert _is_canonical(product)
    vector_part = integer_vector_part(a.n, a.terms.items(), b.terms)
    assert {1 << i: Fraction(c, a.d * b.d) for i, c in enumerate(vector_part) if c} == {
        m: c for m, c in want.items() if m.bit_count() == 1
    }


@settings(max_examples=60, deadline=None)
@given(product_pairs(), st.sampled_from([0, 1, -3, Fraction(2, 7)]))
def test_internal_results_are_canonical(pair, scale):
    """Results built without re-validation equal what the checking
    constructor makes of their terms."""
    a, b = pair
    results = (a + b, a - b, -a, a * scale, scale * a, a.reverse(), a.grade_involution())
    for result in results:
        assert _is_canonical(result)
        checked = Multivector(a.n, fraction_terms(result))
        assert result == checked and hash(result) == hash(checked)
    assert (a + (-a)).terms == {} and (a + (-a)).d == 1
