import random

import pytest

import spinkit.exactlinalg as la
from spinkit.cwcomplex import CWPairComplex, Cochain, coboundary, product_with_interval
from spinkit.errors import ChiralityError
from spinkit.gammarep import build_cl8_rep, clifford_action


def rank_mod_p(rows, p):
    """Rank of an integer matrix over the field Z/p (p prime): the mod-p oracle.

    Reduction mod p can only lower the rank, so over Z/p the result is at
    most the rank over Q.
    """
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def dense_chiral_action(rep, a, chirality):
    """basis^T c(a) basis on the dense 16x8 view of a chiral half: the oracle
    for chiral_action_matrix.

    The half is preserved exactly when projecting the image back onto it
    changes nothing.
    """
    basis = {"+": rep.basis_plus, "-": rep.basis_minus}[chirality]
    image = la.mat_mul(clifford_action(rep, a), basis)
    compressed = la.mat_mul(la.transpose(basis), image)
    if la.mat_mul(basis, compressed) != image:
        raise ChiralityError("element does not preserve the chiral subspace")
    return compressed


@pytest.fixture(scope="session")
def rep():
    """The Cl(0,8) module; built once, immutable, shared by all tests."""
    return build_cl8_rep()


def make_random_pair_complex(rng: random.Random, max_pieces: int = 10, dim: int = 5) -> CWPairComplex:
    """Random valid CW pair: a direct sum of cells and two-cell torsion pieces.

    Every piece is either a lone d-cell or a pair (d-cell, (d-1)-cell) with
    incidence m in {1, 2, 3}; whole pieces may be marked as part of Y, which
    keeps the subcomplex closed under the boundary by construction.
    """
    cells = [0] * (dim + 1)
    pieces = []
    for _ in range(rng.randint(2, max_pieces)):
        d = rng.randint(0, dim)
        in_y = rng.random() < 0.3
        if d >= 1 and rng.random() < 0.5:
            pieces.append((d, rng.choice([1, 2, 3]), in_y))
        else:
            pieces.append((d, None, in_y))
    for d, m, _ in pieces:
        cells[d] += 1
        if m is not None:
            cells[d - 1] += 1
    boundary = {k: [[0] * cells[k] for _ in range(cells[k - 1])] for k in range(1, dim + 1)}
    sub = {k: [0] * cells[k] for k in range(dim + 1)}
    cursor = [0] * (dim + 1)
    for d, m, in_y in pieces:
        j = cursor[d]
        cursor[d] += 1
        if in_y:
            sub[d][j] = 1
        if m is not None:
            i = cursor[d - 1]
            cursor[d - 1] += 1
            boundary[d][i][j] = m * rng.choice([1, -1])
            if in_y:
                sub[d - 1][i] = 1
    return CWPairComplex(cells, boundary, sub)


def make_consistent_difference_inputs(base: CWPairComplex, degree: int, rng: random.Random, coeff):
    """(o_hat, o0, o1) with o_hat a cocycle on the cylinder restricting to o0/o1.

    o_hat = delta(b) for a random b vanishing on the cylinder subcomplex,
    optionally plus a relative cocycle supported on the interval block, so
    the inputs satisfy exactly the consistency conditions the decomposition
    requires.
    """
    prod = product_with_interval(base)
    m = degree
    values = [rng.randint(-5, 5) for _ in range(prod.cell_count(m - 1))]
    nb = base.cell_count(m - 1)
    for s in range(nb):
        if base.sub[m - 1][s]:
            values[s] = 0
            values[nb + s] = 0
    for t in range(base.cell_count(m - 2)):
        if base.sub[m - 2][t]:
            values[2 * nb + t] = 0
    b = Cochain(prod, m - 1, coeff, tuple(values))
    o_hat = coboundary(b)
    n = base.cell_count(m)
    o0 = Cochain(base, m, coeff, o_hat.values[:n])
    o1 = Cochain(base, m, coeff, o_hat.values[n : 2 * n])
    return o_hat, o0, o1


@pytest.fixture
def random_pair_complex():
    return make_random_pair_complex


@pytest.fixture
def consistent_difference_inputs():
    return make_consistent_difference_inputs
