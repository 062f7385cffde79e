"""Exact matrix products and integer elimination against the Fraction oracles."""

from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinkit.exactlinalg as la
from conftest import (
    exact_reference,
    fraction_det,
    fraction_intersection_basis,
    fraction_kernel_basis,
    fraction_mat_mul,
    fraction_mat_vec,
    fraction_rref,
    fraction_view,
)
from spinkit.errors import DimensionMismatchError
from spinkit.snf import smith_diagonal

_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(min_value=-10**6, max_value=10**6),
        st.sampled_from((1, 2, 3, 5, 7, 12, 25, 1001, 65536)),
    ),
)


def assert_exact_form(m, want):
    """m is an exact pair in lowest terms whose value is the Fraction rows want."""
    d, rows = m
    assert type(d) is int and d > 0
    assert all(type(x) is int for row in rows for x in row)
    assert gcd(d, *(x for row in rows for x in row)) == 1
    assert fraction_view(m) == want


def assert_primitive_multiple(v, w):
    """v is the primitive integer vector on the ray of the nonzero Fraction
    vector w; there is exactly one such vector."""
    assert all(type(x) is int for x in v) and gcd(*v) == 1
    f = next(i for i, x in enumerate(w) if x)
    scale = v[f] / w[f]
    assert scale > 0 and tuple(v) == tuple(scale * x for x in w)


@st.composite
def matrix_pairs(draw):
    """(a, b) of shapes r x k and k x c, each 0..6, some entirely zero."""
    r, k, c = (draw(st.integers(min_value=0, max_value=6)) for _ in range(3))
    entries = st.just(Fraction(0)) if draw(st.integers(0, 4)) == 0 else _ENTRIES
    a = tuple(tuple(draw(entries) for _ in range(k)) for _ in range(r))
    b = tuple(tuple(draw(_ENTRIES) for _ in range(c)) for _ in range(k))
    return a, b


@settings(max_examples=200, deadline=None)
@given(matrix_pairs())
def test_mat_mul_matches_fraction_oracle(pair):
    a, b = pair
    (da, ia), (db, ib) = la.exact(1, a), la.exact(1, b)
    product = la.mat_mul(ia, ib)
    assert all(type(x) is int for row in product for x in row)
    assert_exact_form(la.exact(da * db, product), fraction_mat_mul(a, b))


def test_mat_mul_of_zero_and_empty_matrices():
    zero = ((0, 0, 0), (0, 0, 0))
    d, b = la.exact(1, [[Fraction(1, 3), 2], [5, Fraction(-7, 2)], [0, 1]])
    assert (d, b) == (6, ((2, 12), (30, -21), (0, 6)))
    assert la.mat_mul(zero, b) == ((0, 0), (0, 0))
    assert la.exact(d, la.mat_mul(zero, b)) == (1, ((0, 0), (0, 0)))
    # no rows have no width: a product with no rows in a has no rows, whatever b's shape
    assert la.mat_mul((), b) == la.mat_mul((), ()) == la.mat_mul([], ((1, 2, 3),)) == ()
    assert la.mat_mul(((), ()), ()) == ((), ())
    assert la.transpose(()) == la.transpose(((), ())) == ()
    assert la.mat_mul(la.identity(4), la.identity(4)) == la.identity(4)


@settings(max_examples=100, deadline=None)
@given(matrix_pairs(), st.data())
def test_mat_vec_matches_fraction_oracle(pair, data):
    """a v as the product of exact pairs with v as one column.  A column
    with no rows reads back as no columns, so each row is summed: that gives
    the zero entries a v has when v is empty."""
    a, _ = pair
    width = len(a[0]) if a else data.draw(st.integers(0, 3))
    v = tuple(data.draw(_ENTRIES) for _ in range(width))
    (da, ia), (dv, (iv,)) = la.exact(1, a), la.exact(1, [v])
    column = la.mat_mul(ia, [(x,) for x in iv])
    got = la.exact(da * dv, [(sum(row),) for row in column])
    assert_exact_form(got, tuple((x,) for x in fraction_mat_vec(a, v)))


@st.composite
def matrices(draw, square=False):
    """Dense, zero and rank-deficient r x c matrices, r and c in 0..7; a
    product through k < min(r, c) inner columns has rank at most k."""
    r = draw(st.integers(min_value=0, max_value=7))
    c = r if square else draw(st.integers(min_value=0, max_value=7))
    kind = draw(st.sampled_from(["dense", "zero", "product", "repeated"]))
    if kind == "zero":
        return tuple(tuple(Fraction(0) for _ in range(c)) for _ in range(r))
    if kind == "product" and min(r, c) > 1:
        k = draw(st.integers(min_value=1, max_value=min(r, c) - 1))
        a = tuple(tuple(draw(_ENTRIES) for _ in range(k)) for _ in range(r))
        b = tuple(tuple(draw(_ENTRIES) for _ in range(c)) for _ in range(k))
        return fraction_mat_mul(a, b)
    rows = [[draw(_ENTRIES) for _ in range(c)] for _ in range(r)]
    if kind == "repeated" and r > 1:
        s = draw(st.sampled_from([-2, 1, Fraction(1, 3)]))
        rows[-1] = [s * x + y for x, y in zip(rows[0], rows[1])]
    return tuple(map(tuple, rows))


@st.composite
def orbit_shaped_matrices(draw):
    """Tall r x c and wide c x r integer matrices, r in 9..28 and c in 1..8:
    the shapes of the orbit images ``stabilizer_dimensions`` ranks (28 x 8 at
    most), with entries up to about 10^3.  Some are sparse, and a product
    through k < c inner columns has rank at most k."""
    r, c = draw(st.integers(9, 28)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["dense", "sparse", "product"]))
    if kind == "product" and c > 1:
        k = draw(st.integers(1, c - 1))
        small = st.integers(-12, 12)
        a = tuple(tuple(Fraction(draw(small)) for _ in range(k)) for _ in range(r))
        rows = fraction_mat_mul(a, tuple(tuple(draw(small) for _ in range(c)) for _ in range(k)))
    else:
        entries = st.integers(-1000, 1000)
        if kind == "sparse":
            entries = st.one_of(st.just(0), st.just(0), entries)
        rows = tuple(tuple(Fraction(draw(entries)) for _ in range(c)) for _ in range(r))
    return tuple(zip(*rows)) if draw(st.booleans()) else rows


def _assert_rank_and_kernel_match(a):
    _, pivots = fraction_rref([list(row) for row in a])
    _, ia = la.exact(1, a)
    assert la.rank(ia) == len(pivots) == la.rank(la.transpose(ia))
    kernel = la.kernel_basis(ia)
    oracle = fraction_kernel_basis(a)
    assert len(kernel) == len(oracle)
    for v, w in zip(kernel, oracle):
        assert_primitive_multiple(v, w)
    if a:
        assert len(kernel) == len(a[0]) - len(pivots)
        assert all(not any(la.mat_mul((v,), la.transpose(ia))[0]) for v in kernel)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_and_kernel_match_fraction_rref(a):
    _assert_rank_and_kernel_match(a)


@settings(max_examples=100, deadline=None)
@given(orbit_shaped_matrices())
def test_rank_and_kernel_of_tall_and_wide_matrices_match_fraction_rref(a):
    """rank eliminates a tall matrix's transpose; the Fraction RREF of the
    matrix itself is the oracle for it and for kernel_basis."""
    _assert_rank_and_kernel_match(a)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_det_matches_fraction_elimination(a):
    d, ia = la.exact(1, a)
    det = la.det(ia)
    assert type(det) is int
    assert_exact_form(la.exact(d ** len(ia), ((det,),)), ((fraction_det(a),),))
    assert (det == 0) == (la.rank(ia) < len(ia))


def test_elimination_on_zero_empty_and_non_square_inputs():
    assert la.rank(()) == 0 and la.kernel_basis(()) == [] and la.det(()) == 1
    assert la.rank([]) == 0 and la.kernel_basis([]) == [] and la.det([]) == 1
    zero = ((0, 0, 0), (0, 0, 0))
    assert la.rank(zero) == 0
    assert la.kernel_basis(zero) == list(la.identity(3))
    assert la.det(((0, 0, 0),) * 3) == 0
    wide = ((1, 2, 3), (2, 4, 7))
    assert la.rank(wide) == 2
    assert la.kernel_basis(wide) == [(-2, 1, 0)]
    with pytest.raises(ValueError):
        la.det(wide)
    assert la.det(((0, 1), (1, 0))) == -1
    d, rows = la.exact(1, [[Fraction(1, 2), 3], [Fraction(-1, 3), 5]])
    assert Fraction(la.det(rows), d**2) == Fraction(7, 2)


def _outcome(f, d, rows):
    """f(d, rows), or the type and message of the exception it raises."""
    try:
        return f(d, rows)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def exact_inputs(draw):
    """(d, rows) of int and Fraction entries, 0..5 rows of 0..5, with any of
    three faults planted: ragged rows, a d < 1, and one or two bool, float,
    str or Decimal entries at random positions."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = st.one_of(st.integers(-10**6, 10**6), _ENTRIES)
    rows = [[draw(entries) for _ in range(c)] for _ in range(r)]
    d = draw(st.integers(1, 10**4))
    faults = draw(st.sets(st.sampled_from(("ragged", "d", "entry"))))
    if "entry" in faults and r and c:
        for _ in range(draw(st.integers(1, 2))):
            bad = draw(st.sampled_from((True, False, 0.5, 2.0, "1", Decimal("0.1"))))
            rows[draw(st.integers(0, r - 1))][draw(st.integers(0, c - 1))] = bad
    if "ragged" in faults and r > 1:
        row = rows[draw(st.integers(0, r - 1))]
        if row and draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(entries))
    if "d" in faults:
        d = draw(st.integers(-3, 0))
    return d, tuple(map(tuple, rows))


@settings(max_examples=400, deadline=None)
@given(exact_inputs())
def test_exact_matches_the_loop_oracle(case):
    """exact's C-level passes give the loop oracle's pair, or raise its
    exception with its message: ragged rows, a d < 1, and the first entry in
    row-major order that is not an int or a Fraction."""
    d, rows = case
    assert _outcome(la.exact, d, rows) == _outcome(exact_reference, d, rows)


def test_exact_form_is_in_lowest_terms():
    assert la.exact(4, [[2, -6], [0, 8]]) == (2, ((1, -3), (0, 4)))
    assert la.exact(3, [[Fraction(3, 2), 0]]) == (2, ((1, 0),))
    assert la.exact(5, [[0, 0]]) == (1, ((0, 0),))
    assert la.exact(7, []) == (1, ())
    with pytest.raises(ValueError, match="ragged"):
        la.exact(1, [[1, 2], [3]])
    for d in (0, -2, True, Fraction(1, 2)):
        with pytest.raises(ValueError, match="denominator"):
            la.exact(d, [[1]])
    # the entry types are exactly int and Fraction: a subclass is not converted on a guess
    Flag = IntEnum("Flag", "A")
    Half = type("Half", (Fraction,), {})
    for bad in (True, Flag.A, Half(1, 2), 0.5):
        with pytest.raises(TypeError, match=f"not {type(bad).__name__}$"):
            la.exact(1, [[bad, 1]])


def test_rank_of_the_monomial_gram(rep):
    """The 256 x 256 trace Gram of the Cl(0,8) monomials is 16 I; a copy with
    one row replaced by a combination of two others has rank 255."""
    monomials = [rep.monomials[mask] for mask in range(256)]
    gram = [
        [sum(sa[j] * sb[j] for j in range(16) if pa[j] == pb[j]) for pb, sb in monomials]
        for pa, sa in monomials
    ]
    assert la.exact(16, gram) == (1, la.identity(256))  # gram / 16 = I
    assert la.rank(gram) == 256 and la.kernel_basis(gram) == []
    gram[200] = [3 * x - y for x, y in zip(gram[5], gram[17])]
    damaged = fraction_view((1, gram))
    assert la.rank(gram) == 255 == len(fraction_rref([list(r) for r in damaged])[1])
    kernel, oracle = la.kernel_basis(gram), fraction_kernel_basis(damaged)
    assert len(kernel) == len(oracle) == 1
    assert_primitive_multiple(kernel[0], oracle[0])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_intersection_basis_matches_fraction_oracle(data):
    """Row spaces of random full-row-rank a and b, some sharing rows.  A row
    space ignores the scale of each row, so the integer rows of a and b span
    the same spaces, and each basis vector is the oracle's scaled to
    primitive integers."""
    c = data.draw(st.integers(min_value=1, max_value=6))
    rows = [tuple(data.draw(_ENTRIES) for _ in range(c)) for _ in range(2 * c)]
    a = tuple(rows[: data.draw(st.integers(1, c))])
    b = tuple(rows[data.draw(st.integers(0, len(a))) :][: data.draw(st.integers(1, c))])
    ia, ib = la.exact(1, a)[1], la.exact(1, b)[1]
    if la.rank(ia) < len(ia) or la.rank(ib) < len(ib):
        with pytest.raises(ValueError):
            la.intersection_basis(ia, ib)
        return
    basis = la.intersection_basis(ia, ib)
    oracle = fraction_intersection_basis(a, b)
    assert len(basis) == len(oracle)
    for v, w in zip(basis, oracle):
        assert_primitive_multiple(v, w)
    for v in basis:
        assert la.rank(ia + (v,)) == len(ia) and la.rank(ib + (v,)) == len(ib)


def test_mismatched_shapes_raise():
    a = ((1, 2, 3), (4, 5, 6))
    b = ((1, 0), (0, 1))
    with pytest.raises(DimensionMismatchError):
        la.mat_mul(a, b)  # 2x3 times 2x2
    with pytest.raises(DimensionMismatchError):
        la.mat_mul(b, ())
    with pytest.raises(DimensionMismatchError):
        la.mat_mul(a, ((1,), (1,)))  # a applied to a vector of length 2
    with pytest.raises(DimensionMismatchError):
        la.intersection_basis(a, b)
    assert la.mat_mul(b, a) == a
    with pytest.raises(DimensionMismatchError, match="^determinant of a non-square matrix$"):
        la.det(a)
    # ragged rows raise instead of being truncated or read past their end
    for ragged in ([[1], [2, 3]], [[1, 2], [3]]):
        for kernel in (
            partial(la.exact, 1),
            la.transpose,
            lambda r: la.mat_mul(r, [[1], [1]]),
            lambda r: la.mat_mul(b, r),
            lambda r: la.mat_mul((), r),
            la.rank,
            la.kernel_basis,
            lambda r: la.intersection_basis(r, [[1, 0]]),
            lambda r: la.intersection_basis([[1, 0]], r),
            la.det,
            smith_diagonal,
        ):
            with pytest.raises(DimensionMismatchError, match="^ragged matrix$"):
                kernel(ragged)
        for kernel in (la.rank, la.kernel_basis):
            with pytest.raises(ValueError, match="ragged matrix"):
                kernel(ragged)
        with pytest.raises(ValueError, match="ragged matrix"):
            la.intersection_basis(ragged, [[1, 0]])
    # a ragged tall input raises before any transpose is taken
    for ragged in ([[1, 2]] * 5 + [[3]], [[1]] + [[2, 3]] * 5, [[1, 2, 3]] * 28 + [[4, 5]]):
        for kernel in (la.rank, la.kernel_basis, la.transpose):
            with pytest.raises(DimensionMismatchError, match="^ragged matrix$"):
                kernel(ragged)
