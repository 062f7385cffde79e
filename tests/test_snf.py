"""Smith normal form and abelian group descriptors."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinkit.exactlinalg as la
from spinkit.cwcomplex import CWPairComplex, CoefficientGroup, Z_COEFF, relative_cohomology
from spinkit.snf import AbelianGroup, smith_diagonal
from conftest import rank_mod_p, sweep_until_stable


def test_smith_diagonal_known_values():
    assert smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    assert smith_diagonal([[6]]) == [6]
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]


@pytest.mark.parametrize("bad", [2.5, "4", Fraction(4), True], ids=repr)
def test_smith_diagonal_rejects_non_integers(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        smith_diagonal([[2, 0], [0, bad]])


def test_smith_divisibility_chain_and_determinant():
    rng = random.Random(0)
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        diag = smith_diagonal(m)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert len(diag) == la.rank(la.mat(m))
        if r == c:
            det = abs(la.det(la.mat(m)))
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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=360), max_size=8))
def test_from_orders_single_sweep_matches_repeated_sweeps(orders):
    g = AbelianGroup.from_orders(orders)
    assert g.free_rank == orders.count(0)
    assert g.torsion == sweep_until_stable(orders)


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
        rank_q = la.rank(la.mat(m))
        assert rank_q <= k
        for p in (2, 3):
            assert rank_mod_p(m, p) <= rank_q
        # over a large prime, a rank drop has probability ~ 0
        assert rank_mod_p(m, 46337) == rank_q
