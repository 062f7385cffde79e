"""Smith normal form and abelian group descriptors."""

import random

import pytest

import spinkit.exactlinalg as la
from spinkit.snf import AbelianGroup, integer_rank, smith_diagonal
from conftest import rank_mod_p


def test_smith_diagonal_known_values():
    assert smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    assert smith_diagonal([[6]]) == [6]
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]


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
        rank_z = integer_rank(m)
        for p in (2, 3):
            assert rank_mod_p(m, p) <= rank_z


def test_abelian_group_normalization():
    g = AbelianGroup.from_orders([4, 6])
    assert g.torsion == (2, 12)
    assert str(g) == "Z/2 + Z/12"
    assert AbelianGroup.from_orders([0, 0, 1, 5]).free_rank == 2
    assert str(AbelianGroup.from_orders([])) == "0"
    assert AbelianGroup.from_orders([2, 3]).torsion == (6,)
    assert AbelianGroup.from_orders([0]).order() is None
    assert AbelianGroup.from_orders([2, 2]).order() == 4
    with pytest.raises(ValueError):
        AbelianGroup(1, (4, 2))


def test_tensor_and_tor_with_cyclic():
    g = AbelianGroup.from_orders([0, 4])  # Z + Z/4
    assert str(g.tensor_with_cyclic(2)) == "Z/2 + Z/2"
    assert str(g.torsion_product_with_cyclic(2)) == "Z/2"
    assert str(g.tensor_with_cyclic(3)) == "Z/3"
    assert g.torsion_product_with_cyclic(3).is_trivial()
    z = AbelianGroup.from_orders([0])
    assert str(z.tensor_with_cyclic(6)) == "Z/6"
    assert z.torsion_product_with_cyclic(6).is_trivial()


def test_direct_sum():
    a = AbelianGroup.from_orders([0, 2])
    b = AbelianGroup.from_orders([0, 0, 4])
    assert str(a.direct_sum(b)) == "Z^3 + Z/2 + Z/4"


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
