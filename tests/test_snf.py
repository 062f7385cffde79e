"""Smith normal form and abelian group descriptors."""

import random
import re
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinkit.exactlinalg as la
import spinkit.snf as snf
from spinkit.cwcomplex import CWPairComplex, CoefficientGroup, Z_COEFF, relative_cohomology
from spinkit.snf import AbelianGroup, _divisibility_chain, smith_diagonal
from conftest import (
    loop_group_invariants,
    rank_mod_p,
    smith_diagonal_reference,
    sweep_until_stable,
)


def test_smith_diagonal_known_values():
    assert smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    assert smith_diagonal([[6]]) == [6]
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]


def test_smith_diagonal_takes_tuple_rows_and_leaves_its_argument_unchanged():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert smith_diagonal(rows) == [2, 2, 156]
    assert rows == [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    frozen = ((0, 0, 0), (0, 4, 6), (0, 0, 0), (3, 0, 9))
    assert smith_diagonal(frozen) == [1, 6]
    assert smith_diagonal(list(frozen)) == [1, 6]


@st.composite
def sparse_matrices(draw):
    """Up to 12 x 16, entries in +-1..+-12 on up to a third of the places,
    with whole rows and columns held at zero; no known diagonal."""
    rng = draw(st.randoms(use_true_random=True))
    r, c = rng.randint(0, 12), rng.randint(0, 16)
    dead_rows, dead_cols = rng.sample(range(r), r // 3), rng.sample(range(c), c // 3)
    density = rng.uniform(0.05, 0.35)
    m = [[0] * c for _ in range(r)]
    for i in range(r):
        for j in range(c):
            if i not in dead_rows and j not in dead_cols and rng.random() < density:
                m[i][j] = rng.choice((-1, 1)) * rng.randint(1, 12)
    return m, None


@st.composite
def scrambled_diagonals(draw):
    """A known Smith diagonal d1 | d2 | ..., placed in an r x c zero matrix
    (r <= 8, c <= 10) and scrambled by unimodular row and column operations
    while every entry stays within 4096."""
    rng = draw(st.randoms(use_true_random=True))
    r, c = rng.randint(1, 8), rng.randint(1, 10)
    diag = list(accumulate((rng.randint(1, 4) for _ in range(rng.randint(0, min(r, c)))), mul))
    m = [[0] * c for _ in range(r)]
    for t, d in enumerate(diag):
        m[t][t] = d
    for _ in range(200):
        on_rows = rng.random() < 0.5
        work = m if on_rows else [list(col) for col in zip(*m)]
        if len(work) < 2:
            continue
        s, t = rng.sample(range(len(work)), 2)
        q = rng.randint(-3, 3)
        if q:
            new = [x + q * y for x, y in zip(work[t], work[s])]
            if max(map(abs, new)) > 4096:
                continue
            work[t] = new
        else:
            work[s], work[t] = work[t], work[s]
        m = work if on_rows else [list(row) for row in zip(*work)]
    return m, diag


@settings(max_examples=500, deadline=None)
@given(st.one_of(sparse_matrices(), scrambled_diagonals()))
def test_smith_diagonal_matches_the_reference_loop(case):
    """Sparse boundary-like matrices and big-entry scrambles: the live-block
    elimination returns what the full loop returns (and the scrambled
    diagonal, where it is known), and copies its input."""
    m, known = case
    snapshot = [list(row) for row in m]
    got = smith_diagonal(m)
    assert got == smith_diagonal_reference(m)
    assert known is None or got == known
    assert m == snapshot


def test_smith_diagonal_takes_the_reference_loop_pass_for_pass(monkeypatch):
    """Each pass of smith_diagonal (one _eliminate call) starts from the
    matrix the full loop holds at the start of its pass, so the two take
    the same pivots in the same order, on random and big-entry matrices."""
    passes, real = [], snf._eliminate
    monkeypatch.setattr(snf, "_eliminate", lambda a, top: passes.append([list(r) for r in a]) or real(a, top))
    rng = random.Random(88)
    for k in range(400):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        big = k % 2
        m = [[rng.randint(-4096, 4096) if big else rng.choice((0, 0, 0, 1, -2, 3, -4, 6, 12))
              for _ in range(c)] for _ in range(r)]
        passes.clear()
        reference: list = []
        assert smith_diagonal(m) == smith_diagonal_reference(m, reference)
        assert passes == reference


@pytest.mark.parametrize("bad", [2.5, "4", Fraction(4), True], ids=repr)
def test_smith_diagonal_rejects_non_integers(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        smith_diagonal([[2, 0], [0, bad]])


@pytest.mark.parametrize("ragged", [[[0], [0, 5]], [[1, 2], [3]], [[2, 0], [0, 3], [1]]], ids=repr)
def test_smith_diagonal_rejects_ragged_rows(ragged):
    with pytest.raises(ValueError, match="ragged matrix"):
        smith_diagonal(ragged)


def test_smith_divisibility_chain_and_determinant():
    rng = random.Random(0)
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        diag = smith_diagonal(m)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert len(diag) == la.rank(m)
        if r == c:
            det = abs(la.det(m))
            prod = 1
            for d in diag:
                prod *= d
            if len(diag) == r:
                assert prod == det
            else:
                assert det == 0


def test_smith_rank_agrees_with_mod_p_bound():
    rng = random.Random(5)
    for _ in range(40):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        rank_z = len(smith_diagonal(m))
        for p in (2, 3):
            assert rank_mod_p(m, p) <= rank_z


def test_abelian_group_normalization():
    g = AbelianGroup.from_orders([4, 6])
    assert g.torsion == (2, 12)
    assert str(g) == "Z/2 + Z/12"
    assert AbelianGroup.from_orders([0, 0, 1, 5]).free_rank == 2
    assert str(AbelianGroup.from_orders([])) == "0"
    assert AbelianGroup.from_orders([2, 3]).torsion == (6,)
    assert AbelianGroup.from_orders([0]) == AbelianGroup(1)
    assert AbelianGroup.from_orders([2, 2]).torsion == (2, 2)
    with pytest.raises(ValueError):
        AbelianGroup(1, (4, 2))
    assert AbelianGroup(0, (1, 2, 1, 4)).torsion == (2, 4)
    for torsion in ((0,), (-3,), (2, 0)):
        with pytest.raises(ValueError, match="torsion orders positive"):
            AbelianGroup(0, torsion)
    with pytest.raises(ValueError, match="free rank must be nonnegative"):
        AbelianGroup(-1)
    # a negative order is rejected, not dropped as if it were 1
    for orders, bad in (([-4], -4), ([0, -3], -3), ([2, -1, 6], -1)):
        with pytest.raises(ValueError, match=f"cyclic orders must be nonnegative, not {bad}$"):
            AbelianGroup.from_orders(orders)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=360), max_size=8))
def test_from_orders_single_sweep_matches_repeated_sweeps(orders):
    g = AbelianGroup.from_orders(orders)
    assert g.free_rank == orders.count(0)
    assert g.torsion == sweep_until_stable(orders)


def _outcome(build, *args):
    """What build(*args) returns, or the type and text of what it raises."""
    try:
        return build(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# bools, floats, strings, 0, negatives, 1s and non-chains among the invariants
_INVARIANTS = st.sampled_from([0, 1, 2, 3, 4, 6, 12, -1, -4, True, False, 2.0, 0.5, "2", Fraction(4)])


@settings(max_examples=600, deadline=None)
@given(_INVARIANTS, st.lists(_INVARIANTS, max_size=5))
def test_abelian_group_checks_match_the_loop(free_rank, torsion):
    """AbelianGroup's C-level type, sign and chain passes raise what the
    per-item loop raises, with the same text, and keep the same torsion."""
    got = _outcome(lambda: AbelianGroup(free_rank, tuple(torsion)).torsion)
    assert got == _outcome(loop_group_invariants, free_rank, tuple(torsion))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), max_size=7), st.lists(st.integers(1, 360), max_size=7))
def test_divisibility_chain_leaves_chains_unchanged(factors, orders):
    """A chain d1 | d2 | ... comes back as the same list, unchanged; any
    other list comes back as a chain whose entries above 1 are the torsion
    coefficients that repeated sweeps reach."""
    chain = list(accumulate(factors, mul))
    assert _divisibility_chain(chain) is chain and chain == list(accumulate(factors, mul))
    swept = _divisibility_chain(list(orders))
    assert not any(b % a for a, b in zip(swept, swept[1:]))
    assert tuple(d for d in swept if d > 1) == sweep_until_stable(orders)


def test_smith_diagonal_matches_sympy_invariant_factors():
    """An oracle outside spinkit: sympy's invariant factors, zeros dropped,
    on integer matrices up to 6 x 6."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda r: st.integers(1, 6).flatmap(
                lambda c: st.lists(
                    st.lists(st.integers(-20, 20), min_size=c, max_size=c), min_size=r, max_size=r
                )
            )
        )
    )
    def agrees(m):
        want = [int(abs(d)) for d in invariant_factors(sympy.Matrix(m), domain=sympy.ZZ) if d]
        assert smith_diagonal(m) == want

    agrees()


def _z_plus_z4():
    """H^2 = Z + Z/4 and H^1 = 0 over Z."""
    return CWPairComplex([0, 1, 2], boundary={2: [[4, 0]]})


def test_tensor_and_tor_with_cyclic():
    # over Z/m, H^2 of this pair is H^2(;Z) (x) Z/m and H^1 is Tor(H^2(;Z), Z/m)
    g = _z_plus_z4()
    assert str(relative_cohomology(g, 2, Z_COEFF)) == "Z + Z/4"
    assert str(relative_cohomology(g, 2, CoefficientGroup(2))) == "Z/2 + Z/2"
    assert str(relative_cohomology(g, 1, CoefficientGroup(2))) == "Z/2"
    assert str(relative_cohomology(g, 2, CoefficientGroup(3))) == "Z/3"
    assert str(relative_cohomology(g, 1, CoefficientGroup(3))) == "0"
    assert str(relative_cohomology(g, 2, CoefficientGroup(6))) == "Z/2 + Z/6"
    z = CWPairComplex([1])  # a point: H^0 = Z
    assert str(relative_cohomology(z, 0, CoefficientGroup(6))) == "Z/6"
    assert str(relative_cohomology(z, -1, CoefficientGroup(6))) == "0"


def test_direct_sum():
    # H^2 of a direct sum of complexes is the direct sum of the H^2s
    a = CWPairComplex([0, 1, 2], boundary={2: [[2, 0]]})  # Z + Z/2
    b = CWPairComplex([0, 1, 3], boundary={2: [[4, 0, 0]]})  # Z^2 + Z/4
    ab = CWPairComplex([0, 2, 5], boundary={2: [[2, 0, 0, 0, 0], [0, 0, 4, 0, 0]]})
    ha, hb = (relative_cohomology(cx, 2, Z_COEFF) for cx in (a, b))
    assert (str(ha), str(hb)) == ("Z + Z/2", "Z^2 + Z/4")
    orders = [0] * (ha.free_rank + hb.free_rank) + list(ha.torsion + hb.torsion)
    assert relative_cohomology(ab, 2, Z_COEFF) == AbelianGroup.from_orders(orders)
    assert str(AbelianGroup.from_orders(orders)) == "Z^3 + Z/2 + Z/4"


def test_relative_cohomology_mod_m_matches_universal_coefficients(random_pair_complex):
    """H^k(;Z/m) = H^k(;Z) (x) Z/m + Tor(H^(k+1)(;Z), Z/m), from the Z answers."""

    def tensor(g, m):
        return [m] * g.free_rank + [gcd(t, m) for t in g.torsion]

    def tor(g, m):
        return [gcd(t, m) for t in g.torsion]

    rng = random.Random(8)
    complexes = [random_pair_complex(rng, max_pieces=9, dim=5) for _ in range(25)]
    for cx in complexes + [_z_plus_z4()]:
        for k in range(-1, cx.dim + 2):
            here = relative_cohomology(cx, k, Z_COEFF)
            above = relative_cohomology(cx, k + 1, Z_COEFF)
            for m in (2, 3, 4, 6):
                want = AbelianGroup.from_orders(tensor(here, m) + tor(above, m))
                assert relative_cohomology(cx, k, CoefficientGroup(m)) == want, (cx.cells, k, m)


def test_rank_mod_p_oracle_is_exact():
    # a product of random 12 x k and k x 9 matrices has rank at most k
    # over Q, and almost always exactly k
    rng = random.Random(2)
    for _ in range(20):
        k = rng.randint(0, 9)
        left = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(12)]
        right = [[rng.randint(-5, 5) for _ in range(9)] for _ in range(k)]
        m = [[sum(x * right[t][j] for t, x in enumerate(row)) for j in range(9)] for row in left]
        rank_q = la.rank(m)
        assert rank_q <= k
        for p in (2, 3):
            assert rank_mod_p(m, p) <= rank_q
        # over a large prime, a rank drop has probability ~ 0
        assert rank_mod_p(m, 46337) == rank_q
