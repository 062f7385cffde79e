"""Exact matrix products and integer elimination against the Fraction oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinkit.exactlinalg as la
from conftest import (
    fraction_det,
    fraction_intersection_basis,
    fraction_kernel_basis,
    fraction_mat_mul,
    fraction_mat_vec,
    fraction_rref,
)
from spinkit.errors import DimensionMismatchError

_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(min_value=-10**6, max_value=10**6),
        st.sampled_from((1, 2, 3, 5, 7, 12, 25, 1001, 65536)),
    ),
)


@st.composite
def matrix_pairs(draw):
    """(a, b) of shapes r x k and k x c, each 0..6, some entirely zero."""
    r, k, c = (draw(st.integers(min_value=0, max_value=6)) for _ in range(3))
    entries = st.just(Fraction(0)) if draw(st.integers(0, 4)) == 0 else _ENTRIES
    a = la.mat([[draw(entries) for _ in range(k)] for _ in range(r)])
    b = la.mat([[draw(_ENTRIES) for _ in range(c)] for _ in range(k)])
    return a, b


@settings(max_examples=200, deadline=None)
@given(matrix_pairs())
def test_mat_mul_matches_fraction_oracle(pair):
    a, b = pair
    product = la.mat_mul(a, b)
    assert product == fraction_mat_mul(a, b)
    assert all(type(x) is Fraction for row in product for x in row)


def test_mat_mul_of_zero_and_empty_matrices():
    zero = la.mat([[0] * 3] * 2)
    b = la.mat([[Fraction(1, 3), 2], [5, Fraction(-7, 2)], [0, 1]])
    assert la.mat_mul(zero, b) == la.mat([[0, 0], [0, 0]])
    assert la.mat_mul((), b) == ()
    assert la.mat_mul(la.mat([[], []]), ()) == ((), ())
    assert la.mat_mul(la.identity(4), la.identity(4)) == la.identity(4)


@settings(max_examples=100, deadline=None)
@given(matrix_pairs(), st.data())
def test_mat_vec_matches_fraction_oracle(pair, data):
    a, _ = pair
    width = len(a[0]) if a else data.draw(st.integers(0, 3))
    v = tuple(data.draw(_ENTRIES) for _ in range(width))
    assert la.mat_vec(a, v) == fraction_mat_vec(a, v)


@st.composite
def matrices(draw, square=False):
    """Dense, zero and rank-deficient r x c matrices, r and c in 0..7; a
    product through k < min(r, c) inner columns has rank at most k."""
    r = draw(st.integers(min_value=0, max_value=7))
    c = r if square else draw(st.integers(min_value=0, max_value=7))
    kind = draw(st.sampled_from(["dense", "zero", "product", "repeated"]))
    if kind == "zero":
        return la.mat([[0] * c for _ in range(r)])
    if kind == "product" and min(r, c) > 1:
        k = draw(st.integers(min_value=1, max_value=min(r, c) - 1))
        a = la.mat([[draw(_ENTRIES) for _ in range(k)] for _ in range(r)])
        b = la.mat([[draw(_ENTRIES) for _ in range(c)] for _ in range(k)])
        return la.mat_mul(a, b)
    rows = [[draw(_ENTRIES) for _ in range(c)] for _ in range(r)]
    if kind == "repeated" and r > 1:
        s = draw(st.sampled_from([-2, 1, Fraction(1, 3)]))
        rows[-1] = [s * x + y for x, y in zip(rows[0], rows[1])]
    return la.mat(rows)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_and_kernel_match_fraction_rref(a):
    _, pivots = fraction_rref([list(row) for row in a])
    assert la.rank(a) == len(pivots) == la.rank(la.transpose(a))
    kernel = la.kernel_basis(a)
    assert kernel == fraction_kernel_basis(a)
    assert all(type(x) is Fraction for v in kernel for x in v)
    if a:
        assert len(kernel) == len(a[0]) - len(pivots)
        assert all(not any(la.mat_vec(a, v)) for v in kernel)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_det_matches_fraction_elimination(a):
    d = la.det(a)
    assert d == fraction_det(a)
    assert type(d) is Fraction
    assert (d == 0) == (la.rank(a) < len(a))


def test_elimination_on_zero_empty_and_non_square_inputs():
    assert la.rank(()) == 0 and la.kernel_basis(()) == [] and la.det(()) == 1
    zero = la.mat([[0] * 3] * 2)
    assert la.rank(zero) == 0
    assert la.kernel_basis(zero) == [tuple(row) for row in la.identity(3)]
    assert la.det(la.mat([[0] * 3] * 3)) == 0
    wide = la.mat([[1, 2, 3], [2, 4, 7]])
    assert la.rank(wide) == 2
    assert la.kernel_basis(wide) == [(Fraction(-2), Fraction(1), Fraction(0))]
    with pytest.raises(ValueError):
        la.det(wide)
    assert la.det(la.mat([[0, 1], [1, 0]])) == -1
    assert la.det(la.mat([[Fraction(1, 2), 3], [Fraction(-1, 3), 5]])) == Fraction(7, 2)


def test_rank_of_the_monomial_gram(rep):
    """The 256 x 256 trace Gram of the Cl(0,8) monomials is 16 I; a copy with
    one row replaced by a combination of two others has rank 255."""
    monomials = [rep.monomials[mask] for mask in range(256)]
    gram = [
        [sum(sa[j] * sb[j] for j in range(16) if pa[j] == pb[j]) for pb, sb in monomials]
        for pa, sa in monomials
    ]
    assert la.mat(gram) == la.mat_scale(la.identity(256), 16)
    assert la.rank(la.mat(gram)) == 256 and la.kernel_basis(la.mat(gram)) == []
    gram[200] = [3 * x - y for x, y in zip(gram[5], gram[17])]
    damaged = la.mat(gram)
    assert la.rank(damaged) == 255 == len(fraction_rref([list(r) for r in damaged])[1])
    assert la.kernel_basis(damaged) == fraction_kernel_basis(damaged)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_intersection_basis_matches_fraction_oracle(data):
    """Row spaces of random full-row-rank a and b, some sharing rows."""
    c = data.draw(st.integers(min_value=1, max_value=6))
    rows = [[data.draw(_ENTRIES) for _ in range(c)] for _ in range(2 * c)]
    a = la.mat(rows[: data.draw(st.integers(1, c))])
    b = la.mat(rows[data.draw(st.integers(0, len(a))) :][: data.draw(st.integers(1, c))])
    if la.rank(a) < len(a) or la.rank(b) < len(b):
        with pytest.raises(ValueError):
            la.intersection_basis(a, b)
        return
    basis = la.intersection_basis(a, b)
    assert basis == fraction_intersection_basis(a, b)
    for v in basis:
        assert la.rank(a + (v,)) == len(a) and la.rank(b + (v,)) == len(b)


def test_mismatched_shapes_raise():
    a = la.mat([[1, 2, 3], [4, 5, 6]])
    b = la.mat([[1, 0], [0, 1]])
    with pytest.raises(DimensionMismatchError):
        la.mat_mul(a, b)  # 2x3 times 2x2
    with pytest.raises(DimensionMismatchError):
        la.mat_mul(b, ())
    with pytest.raises(DimensionMismatchError):
        la.mat_vec(a, (1, 1))
    with pytest.raises(DimensionMismatchError):
        la.mat_sub(b, la.mat([[1, 0]]))
    with pytest.raises(DimensionMismatchError):
        la.intersection_basis(a, b)
    assert la.mat_mul(b, a) == a
