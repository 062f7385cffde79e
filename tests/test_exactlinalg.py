"""Exact matrix products against the Fraction oracle."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import spinkit.exactlinalg as la
from conftest import fraction_mat_mul

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
