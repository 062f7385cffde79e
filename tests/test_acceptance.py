"""Acceptance criteria, one test per criterion.

Every check is exact (tolerance zero); the two timed criteria assert their
wall-clock budgets.  Each test prints one `criterion N (...): PASS/FAIL`
line; run `pytest tests/test_acceptance.py -v -s` to see the lines as the
suite executes.
"""

import functools
import random
import time
import spinkit.exactlinalg as la
from spinkit.census import (
    ManifoldCharData,
    census_report,
    euler_positive_spinor,
)
from spinkit.cwcomplex import (
    CoefficientGroup,
    Z_COEFF,
    coboundary,
    difference_cochain,
    relative_cohomology,
)
from spinkit.gammarep import (
    build_cl8_rep,
    common_fixed_space,
    delta7,
    embed_spin7,
    g2_intersection_basis,
    iota_plus,
    monomial_span_rank,
    spin7_lie_basis,
    stabilizer_dimensions,
)
from spinkit.multivector import Multivector, volume_element
from spinkit.spingroup import (
    SpinElement,
    ad_differential,
    adjoint_action,
    random_spin,
    rational_unit_tuple,
    rational_unit_vector,
)
from spinkit.torsor import (
    abelian_groups_up_to,
    action_from_difference,
    difference_from_action,
    regular_difference_table,
    verify_difference_axioms,
)
from conftest import (
    cochain_sub,
    dense_signed_perm,
    fraction_clifford_action,
    make_consistent_difference_inputs,
    make_random_pair_complex,
    rank_mod_p,
    spinor_so7,
)


def criterion(num, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({label}): FAIL")
                raise
            print(f"criterion {num} ({label}): PASS")

        return wrapper

    return decorate


@criterion(1, "generator relations in Cl(0,8), exact, < 1 s")
def test_criterion_1_clifford_relations():
    start = time.perf_counter()
    for i in range(8):
        for j in range(8):
            a = Multivector.basis_vector(8, i)
            b = Multivector.basis_vector(8, j)
            assert a * b + b * a == Multivector.scalar(8, -2 if i == j else 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "256 monomials span a 256-dim matrix space, exact rank, < 30 s")
def test_criterion_2_representation_isomorphism():
    start = time.perf_counter()
    fresh = build_cl8_rep()
    # each permutation class's integer trace Gram has the rank of its
    # monomials over Q and the classes' supports are disjoint, so 256 is an
    # exact certificate
    assert monomial_span_rank(fresh) == 256
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s"


@criterion(3, "chirality: 8+8 eigenspaces; 25 unit vectors swap isometrically")
def test_criterion_3_chirality(rep):
    d, omega = la.exact(1, fraction_clifford_action(rep, volume_element(8)))
    ident16 = la.identity(16)
    assert d == 1 and la.mat_mul(omega, omega) == ident16

    def shifted(rows, s):  # rows - s I
        return [[x - s if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]

    plus = la.kernel_basis(shifted(omega, 1))
    minus = la.kernel_basis(shifted(omega, -1))
    assert len(plus) == 8 and len(minus) == 8
    _, basis_plus = la.exact(1, dense_signed_perm(rep.halves["+"]))
    _, basis_minus = la.exact(1, dense_signed_perm(rep.halves["-"]))
    minus_projector = la.mat_mul(basis_minus, la.transpose(basis_minus))
    plus_projector = la.mat_mul(basis_plus, la.transpose(basis_plus))
    rng = random.Random(2025)
    for _ in range(25):
        d, action = la.exact(1, fraction_clifford_action(rep, rational_unit_vector(8, rng)))
        ident8 = tuple(tuple(d * d * x for x in row) for row in la.identity(8))  # d^2 I
        image_plus = la.mat_mul(action, basis_plus)  # over d
        assert la.mat_mul(minus_projector, image_plus) == image_plus
        assert la.mat_mul(la.transpose(image_plus), image_plus) == ident8
        image_minus = la.mat_mul(action, basis_minus)
        assert la.mat_mul(plus_projector, image_minus) == image_minus
        assert la.mat_mul(la.transpose(image_minus), image_minus) == ident8


@criterion(4, "lift sends -1 to omega8; conjugation of lift = spin rep, exact")
def test_criterion_4_lift_identity(rep):
    minus_one = SpinElement(Multivector.scalar(7, -1))
    assert iota_plus(rep, delta7(rep, minus_one.value)).value == volume_element(8)
    basis = spin7_lie_basis()
    assert len(basis) == 21
    for x, b in zip(basis, spinor_so7(rep)):
        assert ad_differential(b).entries == delta7(rep, x)
    rng = random.Random(4242)
    for _ in range(10):
        z = random_spin(7, rng.randint(1, 2), rng.randrange(10**6))
        r = delta7(rep, z.value)
        assert adjoint_action(iota_plus(rep, r)).entries == r


@criterion(5, "fixed spinor line is 1-dim; its so(8)-stabilizer is 21-dim")
def test_criterion_5_fixed_space_and_stabilizer(rep):
    line = common_fixed_space(rep, spinor_so7(rep))
    assert line == [rep.fixed_spinor]
    psi = rep.fixed_spinor
    assert stabilizer_dimensions(rep, [psi]) == [21]


@criterion(6, "orbit rank 7; chiral so(7)-stabilizer 14; so(7) copies meet in 14")
def test_criterion_6_homogeneous_spaces(rep):
    psi = rep.fixed_spinor
    assert [28 - dim for dim in stabilizer_dimensions(rep, [psi])] == [7]
    rng = random.Random(77)
    algebra = [embed_spin7(x) for x in spin7_lie_basis()]
    assert stabilizer_dimensions(rep, [rational_unit_tuple(8, rng)[1]], algebra) == [14]
    assert len(g2_intersection_basis(spinor_so7(rep))) == 14


@criterion(7, "difference-cochain identity on 100 inputs; SNF vs mod-p oracle")
def test_criterion_7_cochain_identities():
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        base = make_random_pair_complex(rng, max_pieces=50, dim=8)
        assert sum(base.cells) <= 200
        if base.cell_count(8) + base.cell_count(7) == 0:
            continue
        coeff = Z_COEFF if checked % 2 == 0 else CoefficientGroup(2)
        o_hat, o0, o1 = make_consistent_difference_inputs(base, 8, rng, coeff)
        d = difference_cochain(o_hat, o0, o1)
        assert coboundary(d) == cochain_sub(o0, o1)  # degree-8 inputs: exact identity
        checked += 1

    small = [make_random_pair_complex(rng, max_pieces=9, dim=6) for _ in range(40)]
    for cx in small:
        assert sum(cx.cells) <= 30
        for k in range(cx.dim + 1):
            for p in (2, 3):
                group = relative_cohomology(cx, k, CoefficientGroup(p))
                up = cx.relative_coboundary_matrix(k)
                down = cx.relative_coboundary_matrix(k - 1) if k else []
                r_up = rank_mod_p(up, p) if up and up[0] else 0
                r_down = rank_mod_p(down, p) if down and down[0] else 0
                brute = len(cx.relative_indices(k)) - r_up - r_down
                assert group.free_rank + len(group.torsion) == brute


@criterion(8, "torsor axioms + roundtrips for every abelian group of order <= 16")
def test_criterion_8_torsor_equivalence():
    groups = list(abelian_groups_up_to(16))
    assert len(groups) == 25
    for group in groups:
        table = regular_difference_table(group)
        assert len(table.carrier) == group.order()
        verify_difference_axioms(table)
        action = action_from_difference(table)
        back = difference_from_action(action)
        assert back.table == table.table
        assert action_from_difference(back).table == action.table


@criterion(9, "census desk checks: S8, flat data, HP2, and the count of two")
def test_criterion_9_census():
    s8 = ManifoldCharData("S8", 0, 0, 2, 0, 1, simply_connected=True)
    assert euler_positive_spinor(s8) == 1
    assert not census_report(s8).exists

    flat = ManifoldCharData("flat", 0, 0, 0, 0, 1, has_boundary=True)
    assert census_report(flat).exists

    hp2 = ManifoldCharData("HP2", 4, 7, 3, 0, 1, simply_connected=True)
    assert euler_positive_spinor(hp2) == 3
    assert 7 * hp2.p2 - hp2.p1_sq == 45

    sample = ManifoldCharData("sample", 768, -96, 144, 0, 1, simply_connected=True)
    assert euler_positive_spinor(sample) == 0
    assert census_report(sample).count == 2


@criterion(10, "verify all --seed 42 twice: byte-identical reports")
def test_criterion_10_determinism(capsys):
    from spinkit.cli import main

    assert main(["verify", "all", "--seed", "42"]) == 0
    first = capsys.readouterr().out.encode()
    assert main(["verify", "all", "--seed", "42"]) == 0
    second = capsys.readouterr().out.encode()
    assert first == second
    assert b"FAIL" not in first
