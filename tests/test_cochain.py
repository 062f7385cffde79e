"""Relative cochain algebra: coboundaries, products of pairs, cylinders, difference cochains."""

import random
import re
from fractions import Fraction

import pytest

import spinkit.cwcomplex as cwcomplex
import spinkit.exactlinalg as la
from spinkit.cwcomplex import (
    CWPairComplex,
    Cochain,
    CoefficientGroup,
    INTERVAL_PAIR,
    Z_COEFF,
    coboundary,
    difference_cochain,
    pair_product,
    product_with_interval,
    relative_cohomology,
)
from spinkit.errors import ComplexValidationError, DimensionMismatchError, ResidueError
from spinkit.fileio import data_path, load_complex
from conftest import (
    block_cylinder,
    cross_with_interval,
    dense_pair_check,
    rank_mod_p,
    uncached_relative_cohomology,
)


def disk8_pair():
    return CWPairComplex(
        [1, 0, 0, 0, 0, 0, 0, 1, 1],
        boundary={8: [[1]]},
        sub={0: [1], 7: [1], 8: [0]},
        name="(D8, S7)",
    )


def test_named_coefficient_groups():
    assert Z_COEFF.modulus == 0 and str(Z_COEFF) == "Z"
    assert str(CoefficientGroup(2)) == "Z/2"
    with pytest.raises(ValueError):
        CoefficientGroup(-2)


def test_complex_validation():
    with pytest.raises(ComplexValidationError):
        CWPairComplex([1, 1, 1], boundary={1: [[1]], 2: [[1]]})  # dd != 0
    with pytest.raises(ComplexValidationError):
        # 1-cell in Y with boundary outside Y
        CWPairComplex([1, 1], boundary={1: [[1]]}, sub={1: [1]})
    with pytest.raises(ComplexValidationError):
        CWPairComplex([1, 1], boundary={1: [[1, 1]]})  # wrong shape


@pytest.mark.parametrize(
    "cells, boundary, sub",
    [
        ([1, 1], {1: [[1.5]]}, None),  # fractional incidence
        ([1, 1], {1: [["a"]]}, None),
        ([1, 1], {1: [[True]]}, None),
        ([1, True], None, None),  # bool cell count
        ([1, "1"], None, None),
        ((1, 1), None, None),
        ([1], None, {0: [2]}),  # flags are 0, 1, true or false
        ([1], None, {0: [0.0]}),
        ([1], None, {3: [1]}),  # degree beyond the dimension
        ([1, 1], {2: [[1]]}, None),
        ([1, 1], {1: 5}, None),
        ([1, 1], {1: [[0.0]]}, None),  # zero entries are type-checked too
        ([1, 1], {1: [[False]]}, None),
    ],
)
def test_complex_entry_types(cells, boundary, sub):
    with pytest.raises(ComplexValidationError):
        CWPairComplex(cells, boundary, sub)


def _interval_cochain(v):
    return Cochain(INTERVAL_PAIR, 0, CoefficientGroup(2), (1, v))


@pytest.mark.parametrize(
    "build, bad",
    [
        (_interval_cochain, 0.5),
        (_interval_cochain, 1.0),
        (_interval_cochain, Fraction(3, 2)),
        (_interval_cochain, "3"),
        (_interval_cochain, True),
        (CoefficientGroup, 2.5),
        (CoefficientGroup, True),
        (CoefficientGroup, "2"),
    ],
    ids=lambda x: getattr(x, "__name__", repr(x)),
)
def test_integer_entry_points_reject_other_types(build, bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        build(bad)


def test_boolean_and_integer_flags_agree():
    by_int = CWPairComplex([1, 1], {1: [[1]]}, {0: [1], 1: [0]})
    by_bool = CWPairComplex([1, 1], {1: [[1]]}, {0: [True], 1: [False]})
    assert by_int == by_bool and by_int.sub == {0: [True], 1: [False]}


def test_interval_generators():
    """On (I, dI): delta 0-bar = -I-bar and delta 1-bar = I-bar, and only
    the 1-cell is relative."""
    zero_bar, one_bar = (Cochain(INTERVAL_PAIR, 0, Z_COEFF, v) for v in ((1, 0), (0, 1)))
    i_bar = Cochain(INTERVAL_PAIR, 1, Z_COEFF, (1,))
    assert coboundary(zero_bar) == -i_bar
    assert coboundary(one_bar) == i_bar
    assert INTERVAL_PAIR.relative_indices(0) == [] and INTERVAL_PAIR.relative_indices(1) == [0]


def test_coboundary_squares_to_zero(random_pair_complex):
    rng = random.Random(1)
    for _ in range(40):
        cx = random_pair_complex(rng, max_pieces=12, dim=6)
        k = rng.randint(0, cx.dim - 2)
        c = Cochain(cx, k, Z_COEFF, tuple(rng.randint(-5, 5) for _ in range(cx.cell_count(k))))
        assert coboundary(coboundary(c)).is_zero()
        c2 = Cochain(cx, k, CoefficientGroup(2), tuple(rng.randint(0, 1) for _ in range(cx.cell_count(k))))
        assert coboundary(coboundary(c2)).is_zero()
    for _ in range(5):  # larger instances, up to two hundred cells
        cx = random_pair_complex(rng, max_pieces=95, dim=8)
        assert sum(cx.cells) <= 200
        k = rng.randint(0, cx.dim - 2)
        c = Cochain(cx, k, Z_COEFF, tuple(rng.randint(-5, 5) for _ in range(cx.cell_count(k))))
        assert coboundary(coboundary(c)).is_zero()


def test_coboundary_matches_dense_oracle(random_pair_complex):
    """delta c on random pairs, their cylinders and products: the reduced
    dense product of c with the columns of the boundary matrix d_(k+1)."""
    rng = random.Random(12)
    for trial in range(60):
        cx = random_pair_complex(rng, max_pieces=8, dim=4)
        if trial % 3 == 1:
            cx = product_with_interval(cx)
        elif trial % 3 == 2:
            cx = pair_product(cx, random_pair_complex(rng, max_pieces=4, dim=2))
        for coeff in (Z_COEFF, CoefficientGroup(2), CoefficientGroup(3)):
            for k in range(cx.dim):
                values = tuple(rng.randint(-5, 5) for _ in range(cx.cell_count(k)))
                b = cx.boundary[k + 1]
                want = [
                    coeff.reduce(sum(b[i][j] * values[i] for i in range(cx.cells[k])))
                    for j in range(cx.cells[k + 1])
                ]
                assert list(coboundary(Cochain(cx, k, coeff, values)).values) == want


def test_coboundary_degree_guard():
    cx = CWPairComplex([1])
    c = Cochain(cx, 0, Z_COEFF, (1,))
    with pytest.raises(DimensionMismatchError):
        coboundary(c)


def test_relative_coboundary_stays_relative(random_pair_complex):
    rng = random.Random(2)
    for _ in range(30):
        cx = random_pair_complex(rng)
        k = rng.randint(0, cx.dim - 1)
        values = [0 if cx.sub[k][i] else rng.randint(-4, 4) for i in range(cx.cell_count(k))]
        c = Cochain(cx, k, Z_COEFF, tuple(values))
        assert c.is_relative()
        assert coboundary(c).is_relative()


def test_relative_cohomology_examples():
    point = CWPairComplex([1], name="point")
    assert str(relative_cohomology(point, 0, Z_COEFF)) == "Z"
    d8 = disk8_pair()
    assert str(relative_cohomology(d8, 8, CoefficientGroup(2))) == "Z/2"
    assert str(relative_cohomology(d8, 8, Z_COEFF)) == "Z"
    assert str(relative_cohomology(d8, 7, Z_COEFF)) == "0"
    s7 = CWPairComplex([1, 0, 0, 0, 0, 0, 0, 1], name="S7")
    assert str(relative_cohomology(s7, 7, Z_COEFF)) == "Z"
    # torsion + universal coefficients on a projective-plane-like complex
    rp2 = CWPairComplex([1, 1, 1], boundary={1: [[0]], 2: [[2]]})
    assert str(relative_cohomology(rp2, 2, Z_COEFF)) == "Z/2"
    assert str(relative_cohomology(rp2, 1, CoefficientGroup(2))) == "Z/2"
    assert str(relative_cohomology(rp2, 1, CoefficientGroup(3))) == "0"


def test_free_rank_formula_for_top_heavy_complexes():
    """Cells only in dims 0, 7, 8 and Y empty: H^7 is free of rank n7 - rank d8."""
    rng = random.Random(12)
    for _ in range(20):
        n7, n8 = rng.randint(1, 5), rng.randint(0, 5)
        cells = [1, 0, 0, 0, 0, 0, 0, n7, n8]
        d8 = [[rng.randint(-3, 3) for _ in range(n8)] for _ in range(n7)]
        cx = CWPairComplex(cells, boundary={8: d8})
        group = relative_cohomology(cx, 7, Z_COEFF)
        assert not group.torsion
        assert group.free_rank == n7 - la.rank(la.mat(d8) if n8 else ())


def test_cohomology_against_mod_p_rank_oracle(random_pair_complex):
    """dim H^k(X,Y; Z/p) = n_k - rank_p(delta_k) - rank_p(delta_(k-1))."""
    rng = random.Random(3)
    complexes = [random_pair_complex(rng, max_pieces=9, dim=6) for _ in range(30)]
    complexes.append(disk8_pair())
    for cx in complexes:
        assert sum(cx.cells) <= 30
        for k in range(cx.dim + 1):
            for p in (2, 3):
                group = relative_cohomology(cx, k, CoefficientGroup(p))
                n_k = len(cx.relative_indices(k))
                up = cx.relative_coboundary_matrix(k)
                down = cx.relative_coboundary_matrix(k - 1) if k else []
                r_up = rank_mod_p(up, p) if up and up[0] else 0
                r_down = rank_mod_p(down, p) if down and down[0] else 0
                want = n_k - r_up - r_down
                got = len(group.torsion) + group.free_rank
                assert got == want, (cx.cells, k, p)


def test_product_with_interval_counts_and_subcomplex(random_pair_complex):
    rng = random.Random(4)
    pt = CWPairComplex([1], name="point")
    cyl = product_with_interval(pt)
    assert cyl.cells == [2, 1]
    assert cyl.boundary[1] == [[-1], [1]]
    for _ in range(20):
        cx = random_pair_complex(rng)
        prod = product_with_interval(cx)  # validates dd = 0 and Y-closure
        for k in range(prod.dim + 1):
            assert prod.cell_count(k) == 2 * cx.cell_count(k) + cx.cell_count(k - 1)
        # relative cells of the cylinder pair are exactly (X \ Y) x interval
        for k in range(prod.dim + 1):
            assert len(prod.relative_indices(k)) == len(cx.relative_indices(k - 1))


def test_product_with_interval_matches_block_oracle(random_pair_complex):
    """The product (X, Y) x (I, dI) equals the cylinder placed block by
    block, signs and subcomplex included, on every test complex.  A sign
    flip of the form +-(-1)^|a| keeps dd = 0, so only this comparison
    catches it."""
    rng = random.Random(13)
    fixed = [
        CWPairComplex([]),
        CWPairComplex([1], name="point"),
        CWPairComplex([2, 1], {1: [[-1], [1]]}),
        CWPairComplex([1, 1, 1], boundary={1: [[0]], 2: [[2]]}),
        disk8_pair(),
        *(load_complex(data_path(f)) for f in ("disk8_rel_sphere7.json", "point.json")),
    ]
    randoms = [random_pair_complex(rng, max_pieces=rng.randint(2, 12), dim=rng.randint(0, 8)) for _ in range(150)]
    for cx in fixed + randoms:
        assert product_with_interval(cx) == block_cylinder(cx), cx.cells
    assert product_with_interval(disk8_pair()).name == "(D8, S7) x I"
    assert product_with_interval(CWPairComplex([1])).name == "cylinder"


def test_pair_product_of_two_intervals():
    """(I, dI) x (I, dI) by hand: 1-cells [I x 0, I x 1, 0 x I, 1 x I] and
    d(I x I) = dI x I - I x dI = 1 x I - 0 x I - I x 1 + I x 0."""
    square = pair_product(INTERVAL_PAIR, INTERVAL_PAIR)
    assert square.cells == [4, 4, 1]
    assert square.boundary[2] == [[1], [-1], [-1], [1]]
    # 0-cells [0 x 0, 1 x 0, 0 x 1, 1 x 1]
    assert square.boundary[1] == [[-1, 0, -1, 0], [1, 0, 0, -1], [0, -1, 1, 0], [0, 1, 0, 1]]
    assert square.sub == {0: [True] * 4, 1: [True] * 4, 2: [False]}
    assert [str(relative_cohomology(square, k, Z_COEFF)) for k in range(3)] == ["0", "0", "Z"]


def test_pair_product_kunneth(random_pair_complex):
    """Over a field F_p, dim H^n(P x Q) = sum_i dim H^i(P) dim H^(n-i)(Q)."""

    def betti(cx, k, p):
        group = relative_cohomology(cx, k, CoefficientGroup(p))
        return group.free_rank + len(group.torsion)

    rng = random.Random(14)
    for _ in range(60):
        dp = rng.randint(0, 6)
        p_cx = random_pair_complex(rng, max_pieces=6, dim=dp)
        q_cx = random_pair_complex(rng, max_pieces=6, dim=rng.randint(0, min(5, 9 - dp)))
        prod = pair_product(p_cx, q_cx)
        assert prod.dim == p_cx.dim + q_cx.dim <= 9
        for p in (2, 3):
            for n in range(prod.dim + 1):
                want = sum(betti(p_cx, i, p) * betti(q_cx, n - i, p) for i in range(n + 1))
                assert betti(prod, n, p) == want, (p_cx.cells, q_cx.cells, n, p)


def test_pair_product_dimension_cap():
    assert pair_product(CWPairComplex([1] * 5), CWPairComplex([1] * 6)).dim == 9
    with pytest.raises(ComplexValidationError, match="dimensions 0..9"):
        pair_product(CWPairComplex([1] * 6), CWPairComplex([1] * 6))
    with pytest.raises(ComplexValidationError, match="dimensions 0..9"):
        product_with_interval(CWPairComplex([1] * 10))


def test_cross_product_identities(random_pair_complex):
    rng = random.Random(5)
    for _ in range(25):
        cx = random_pair_complex(rng)
        k = rng.randint(0, cx.dim - 1)
        c = Cochain(cx, k, Z_COEFF, tuple(rng.randint(-4, 4) for _ in range(cx.cell_count(k))))
        sign = -1 if k % 2 else 1
        i_term = cross_with_interval(c, "I")
        assert coboundary(i_term) == cross_with_interval(coboundary(c), "I")
        lhs0 = coboundary(cross_with_interval(c, "0"))
        want0 = cross_with_interval(coboundary(c), "0") - (
            i_term if sign == 1 else -i_term
        )
        assert lhs0 == want0
        lhs1 = coboundary(cross_with_interval(c, "1"))
        want1 = cross_with_interval(coboundary(c), "1") + (
            i_term if sign == 1 else -i_term
        )
        assert lhs1 == want1
    zero = Cochain.zero(cx, 2, Z_COEFF)
    assert cross_with_interval(zero, "I").is_zero()


def test_difference_cochain_zero_case(random_pair_complex):
    cx = random_pair_complex(random.Random(6))
    prod = product_with_interval(cx)
    m = 3
    o_hat = Cochain.zero(prod, m, Z_COEFF)
    o = Cochain.zero(cx, m, Z_COEFF)
    d = difference_cochain(o_hat, o, o)
    assert d.is_zero() and d.degree == m - 1


def test_difference_cochain_cocycle_case(random_pair_complex, consistent_difference_inputs):
    """o0 = o1 = 0 and delta o_hat = 0 force d to be a cocycle."""
    rng = random.Random(7)
    found = 0
    while found < 10:
        cx = random_pair_complex(rng, max_pieces=10, dim=6)
        m = rng.randint(2, cx.dim - 1)
        # a relative cocycle supported on the interval block: z x I for a
        # relative cocycle z on the base
        nz = cx.cell_count(m - 1)
        values = [0 if cx.sub[m - 1][i] else rng.randint(-3, 3) for i in range(nz)]
        z = Cochain(cx, m - 1, Z_COEFF, tuple(values))
        if not coboundary(z).is_zero():
            continue
        o_hat = cross_with_interval(z, "I")
        o = Cochain.zero(cx, m, Z_COEFF)
        d = difference_cochain(o_hat, o, o)
        assert d == z
        assert coboundary(d).is_zero()
        found += 1


def test_difference_cochain_law(random_pair_complex, consistent_difference_inputs):
    """delta d = (-1)^deg (o0 - o1); at even degree exactly o0 - o1."""
    rng = random.Random(8)
    checked = 0
    while checked < 60:
        cx = random_pair_complex(rng, max_pieces=10, dim=6)
        m = rng.randint(2, cx.dim - 1)
        if cx.cell_count(m) + cx.cell_count(m - 1) == 0:
            continue
        coeff = rng.choice([Z_COEFF, CoefficientGroup(2)])
        o_hat, o0, o1 = consistent_difference_inputs(cx, m, rng, coeff)
        assert coboundary(o_hat).is_zero()
        d = difference_cochain(o_hat, o0, o1)
        assert d.is_relative()
        want = o0 - o1 if m % 2 == 0 else o1 - o0
        assert coboundary(d) == want
        checked += 1


def test_difference_cochain_residue_errors(random_pair_complex, consistent_difference_inputs):
    rng = random.Random(9)
    cx = random_pair_complex(rng, max_pieces=8, dim=5)
    while cx.cell_count(3) == 0:
        cx = random_pair_complex(rng, max_pieces=8, dim=5)
    prod = product_with_interval(cx)
    o_hat, o0, o1 = consistent_difference_inputs(cx, 3, rng, Z_COEFF)
    bad = list(o_hat.values)
    bad[0] += 1  # corrupt an end-block value
    with pytest.raises(ResidueError):
        difference_cochain(Cochain(prod, 3, Z_COEFF, tuple(bad)), o0, o1)
    with pytest.raises(DimensionMismatchError):
        difference_cochain(o_hat, o0, Cochain.zero(cx, 2, Z_COEFF))
    # degree 0: there is no degree -1 cochain to return
    interval = CWPairComplex([2, 1], {1: [[-1], [1]]})
    o = Cochain.zero(interval, 0, Z_COEFF)
    with pytest.raises(DimensionMismatchError, match="degree >= 1"):
        difference_cochain(Cochain.zero(product_with_interval(interval), 0, Z_COEFF), o, o)


def test_one_cylinder_per_pair(random_pair_complex, consistent_difference_inputs, monkeypatch):
    rng = random.Random(10)
    cx = random_pair_complex(rng, max_pieces=10, dim=5)
    while cx.cell_count(3) + cx.cell_count(2) == 0:
        cx = random_pair_complex(rng, max_pieces=10, dim=5)
    prod = product_with_interval(cx)
    assert product_with_interval(cx) is prod
    c = Cochain(cx, 2, Z_COEFF, tuple(rng.randint(-3, 3) for _ in range(cx.cell_count(2))))
    assert all(cross_with_interval(c, gen).complex is prod for gen in "01I")
    o_hat, o0, o1 = consistent_difference_inputs(cx, 3, rng, Z_COEFF)
    assert o_hat.complex is prod

    constructed = []
    init = CWPairComplex.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CWPairComplex, "__init__", counting_init)
    d = difference_cochain(o_hat, o0, o1)
    assert constructed == []
    monkeypatch.undo()

    # an equal cylinder over an equal copy of the base is still accepted
    copy = CWPairComplex(cx.cells, cx.boundary, cx.sub)
    other = product_with_interval(copy)
    assert other is not prod and other == prod
    assert difference_cochain(Cochain(other, 3, Z_COEFF, o_hat.values), o0, o1) == d
    o0_copy = Cochain(copy, 3, Z_COEFF, o0.values)
    o1_copy = Cochain(copy, 3, Z_COEFF, o1.values)
    assert difference_cochain(o_hat, o0_copy, o1_copy).values == d.values


def test_one_smith_diagonal_per_degree(random_pair_complex, monkeypatch):
    """A sweep of H^k over Z, Z/2 and Z/3 takes one Smith diagonal per
    coboundary delta_0 .. delta_(dim-1), and answers as fresh diagonals do."""
    calls = []
    real = cwcomplex.smith_diagonal

    def counting(rows):
        calls.append(rows)
        return real(rows)

    rng = random.Random(12)
    coefficients = (Z_COEFF, CoefficientGroup(2), CoefficientGroup(3))
    for _ in range(15):
        cx = random_pair_complex(rng, max_pieces=12, dim=rng.randint(0, 6))
        want = [uncached_relative_cohomology(cx, k, c) for c in coefficients for k in range(-1, cx.dim + 2)]
        monkeypatch.setattr(cwcomplex, "smith_diagonal", counting)
        calls.clear()
        for _ in range(2):
            got = [relative_cohomology(cx, k, c) for c in coefficients for k in range(-1, cx.dim + 2)]
            assert got == want
        assert len(calls) == cx.dim
        monkeypatch.undo()


def test_dd_check_matches_dense_oracle(random_pair_complex):
    """Corrupt one boundary entry of random pairs and their cylinders: the
    constructor rejects exactly what the dense check rejects, with its message."""
    rng = random.Random(11)
    outcomes = {"accepted": 0, "dd": 0, "closure": 0}
    for trial in range(400):
        cx = random_pair_complex(rng, max_pieces=8, dim=4)
        if trial % 2:
            cx = product_with_interval(cx)
        degrees = [k for k in range(1, cx.dim + 1) if cx.cells[k] and cx.cells[k - 1]]
        if not degrees:
            continue
        boundary = {k: [list(r) for r in m] for k, m in cx.boundary.items()}
        k = rng.choice(degrees)
        i, j = rng.randrange(cx.cells[k - 1]), rng.randrange(cx.cells[k])
        boundary[k][i][j] += rng.choice([-2, -1, 1, 2])
        want = dense_pair_check(cx.dim, boundary, cx.sub)
        try:
            CWPairComplex(cx.cells, boundary, cx.sub)
            got = None
        except ComplexValidationError as exc:
            got = str(exc)
        assert got == want, (cx.cells, k, i, j)
        outcomes["accepted" if want is None else "dd" if want.startswith("dd") else "closure"] += 1
    assert min(outcomes.values()) >= 10, outcomes
