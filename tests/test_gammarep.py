"""The Cl(0,8) module, chirality, and the two Spin(7) copies in Spin(8)."""

import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinkit.cli as cli
import spinkit.exactlinalg as la
import spinkit.gammarep as gammarep
import spinkit.spingroup as spingroup
import spinkit.verify as verify
from conftest import (
    SWAP_CHECK,
    chiral_matrix_stabilizer_dimension,
    dense_eigensplit_failure,
    dense_orthogonal_skew_failure,
    dense_signed_perm,
    dense_swap_failure,
    first_failing_anticommutator,
    fraction_clifford_action,
    fraction_half_images,
    fraction_mat_mul,
    fraction_rref,
    fraction_terms,
    fraction_view,
    multiply_form_traces,
    reflection_iota_plus,
    spinor_lift,
    spinor_so7,
)
from spinkit.errors import (
    ChiralityError,
    DimensionMismatchError,
    EmbeddingDomainError,
    InternalCheckError,
)
from spinkit.gammarep import (
    build_cl8_rep,
    chiral_action_matrix,
    common_fixed_space,
    delta7,
    embed_spin7,
    g2_intersection_basis,
    half_images,
    iota_plus,
    iota_vector,
    monomial_span_rank,
    octonion_basis_product,
    sp_compose,
    spin7_lie_basis,
    stabilizer_dimensions,
)
from spinkit.multivector import Multivector, blade_grade, volume_element
from spinkit.spingroup import (
    SpinElement,
    ad_differential,
    adjoint_action,
    random_spin,
    rational_unit_tuple,
    rational_unit_vector,
)
from spinkit.verify import CHECKS, run_suites

I8 = la.identity(8)
I16 = la.identity(16)


def _negated(rows):
    return tuple(tuple(-x for x in row) for row in rows)


def _product(a, b):
    """The product of two exact pairs, as an exact pair."""
    (da, ra), (db, rb) = a, b
    return la.exact(da * db, la.mat_mul(ra, rb))


def test_octonion_table_is_alternative():
    # left multiplications satisfy the generator relations on all of O
    for i in range(1, 8):
        for j in range(1, 8):
            for x in range(8):
                ji, si = octonion_basis_product(j, x)
                a, sa = octonion_basis_product(i, ji)
                ij, sj = octonion_basis_product(i, x)
                b, sb = octonion_basis_product(j, ij)
                total = {}
                total[a] = total.get(a, 0) + si * sa
                total[b] = total.get(b, 0) + sj * sb
                want = {x: -2} if i == j else {}
                assert {k: v for k, v in total.items() if v} == want


def test_gamma_anticommutators(rep):
    assert verify.gamma_anticommutators(rep) is None
    dense = [la.exact(1, dense_signed_perm(rep.monomials[1 << i]))[1] for i in range(8)]
    for i in range(8):
        for j in range(8):
            gij, gji = la.mat_mul(dense[i], dense[j]), la.mat_mul(dense[j], dense[i])
            total = tuple(tuple(map(sum, zip(r1, r2))) for r1, r2 in zip(gij, gji))
            assert total == tuple(tuple(-2 * x * (i == j) for x in row) for row in I16)


def test_anticommutator_check_names_the_first_failing_pair():
    """One sign-flipped column of gamma_5, planted in monomials[1 << 5]: the
    reps check, which visits only i <= j, names the pair that the full 8x8
    dense loop finds first."""
    damaged = build_cl8_rep()
    damaged.monomials[1 << 5] = _redirected(damaged.monomials[1 << 5], 0, flip=True)
    want = _dense_anticommutator_failure(damaged)
    assert want is not None
    (result,) = [x for x in run_suites("reps", 0, damaged) if x.name == _ANTICOMMUTATORS]
    assert (result.passed, result.detail) == (False, want)


def _dense_anticommutator_failure(rep):
    """The oracle of the anticommutator check on the dense generators, each
    read where the actions read it, as monomials[1 << i]."""
    return first_failing_anticommutator([dense_signed_perm(rep.monomials[1 << i]) for i in range(8)])


def _redirected(sp, j, row=None, flip=False):
    """A copy of the signed permutation sp with column j sent to ``row``
    (when given) and its sign flipped (when ``flip``)."""
    perm, sign = map(list, sp)
    if row is not None:
        perm[j] = row
    if flip:
        sign[j] = -sign[j]
    return tuple(perm), tuple(sign)


def _damage(rep, case):
    """Break one part of a fresh module's column form; a generator is
    damaged where every action reads it, in ``monomials[1 << i]``."""
    (plus, plus_signs), (minus, minus_signs) = rep.halves["+"], rep.halves["-"]
    g3, e2 = rep.monomials[1 << 3], rep.monomials[1 << 2]
    if case == "flip a sign of gamma_3":
        rep.monomials[1 << 3] = _redirected(g3, 0, flip=True)
    elif case == "send two columns of gamma_3 to one row":
        rep.monomials[1 << 3] = _redirected(g3, 1, row=g3[0][0])
    elif case == "c(omega8) is c(e0)":
        rep.monomials[255] = rep.monomials[1]
    elif case == "c(omega8) is the identity":
        rep.monomials[255] = (tuple(range(16)), (1,) * 16)  # diagonal, one eigenvalue
    elif case == "exchange a row between the halves":
        rep.halves["+"] = plus[:-1] + minus[:1], plus_signs
        rep.halves["-"] = plus[-1:] + minus[1:], minus_signs
    elif case == "repeat a row of S+":
        rep.halves["+"] = plus[:1] + plus[:1] + plus[2:], plus_signs
    elif case == "c(e2) is the even c(e0 e1)":
        rep.monomials[1 << 2] = rep.monomials[0b11]
    elif case == "double c(e2)":
        rep.monomials[1 << 2] = e2[0], tuple(2 * x for x in e2[1])
    elif case == "send two S+ columns of c(e2) to one row":
        rep.monomials[1 << 2] = _redirected(e2, plus[1], row=e2[0][plus[0]])
    elif case == "keep an S- column of c(e2) in S-":
        rep.monomials[1 << 2] = _redirected(e2, minus[0], row=minus[0])
    else:
        raise ValueError(case)


_ANTICOMMUTATORS = "gamma anticommutators realize the generator relations"
_ORTHOGONAL_SKEW = "gamma matrices are orthogonal and skew-symmetric"
_EIGENSPLIT = "volume action splits R^16 into orthonormal 8+8 eigenspaces"


@pytest.mark.parametrize(
    "case, name, oracle, detail",
    [
        ("flip a sign of gamma_3", _ANTICOMMUTATORS, _dense_anticommutator_failure, "pair (0,3)"),
        ("flip a sign of gamma_3", _ORTHOGONAL_SKEW, dense_orthogonal_skew_failure,
         "gamma_3 is not skew"),
        ("send two columns of gamma_3 to one row", _ORTHOGONAL_SKEW, dense_orthogonal_skew_failure,
         "gamma_3 is not orthogonal"),
        ("c(omega8) is c(e0)", _EIGENSPLIT, dense_eigensplit_failure,
         "volume action does not square to 1"),
        ("c(omega8) is the identity", _EIGENSPLIT, dense_eigensplit_failure,
         "claimed eigenbasis is not an eigenbasis"),
        ("exchange a row between the halves", _EIGENSPLIT, dense_eigensplit_failure,
         "claimed eigenbasis is not an eigenbasis"),
        ("repeat a row of S+", _EIGENSPLIT, dense_eigensplit_failure,
         "eigenbasis is not orthonormal"),
        ("c(e2) is the even c(e0 e1)", SWAP_CHECK, dense_swap_failure,
         "unit vector does not map S+ into S-"),
        # c(v) is then c(v + v_2 e2): orthogonal columns of the wrong length
        ("double c(e2)", SWAP_CHECK, dense_swap_failure, "unit vector action is not an isometry"),
        # the generator checks read the c(e2) that the actions apply
        ("double c(e2)", _ANTICOMMUTATORS, _dense_anticommutator_failure, "pair (2,2)"),
        ("double c(e2)", _ORTHOGONAL_SKEW, dense_orthogonal_skew_failure, "gamma_2 is not orthogonal"),
        ("send two S+ columns of c(e2) to one row", SWAP_CHECK, dense_swap_failure,
         "unit vector action is not an isometry"),
        ("keep an S- column of c(e2) in S-", SWAP_CHECK, dense_swap_failure,
         "unit vector does not map S- into S+"),
    ],
)
def test_module_check_names_the_damage(case, name, oracle, detail):
    """Each reps module check, run on the signed permutations, reports the
    detail that its dense Fraction oracle reports on the same damage."""
    damaged = build_cl8_rep()
    _damage(damaged, case)
    (result,) = [x for x in run_suites("reps", 0, damaged) if x.name == name]
    assert (result.passed, result.detail) == (False, detail) == (False, oracle(damaged))


_FIXED_LINE = "joint fixed space of the spinor-type so(7) copy is a line"
_LIFT_IDENTITY = "conjugation of the spinor lift equals the spin rep (21 basis + 10 group)"
_G2 = "the two so(7) copies intersect in dimension 14, fixing spinor and vector"
_LIFT_MOVES_PSI = "InternalCheckError: candidate lift moves the fixed spinor line"


def test_reversed_orientation_fails_the_fixed_line():
    """The orientation of S8+ is a constant of the model: with the first
    basis spinor +e8, the halves still pass the six module checks, the
    spinor-type so(7) copy fixes no line of S8+, and the fixed-line check is
    the one that reports the orientation.  The minus-one lift check cannot:
    c(omega8) is +1 on all of S8+, so the lift of -1 that fixes any psi in
    S8+ is +omega8 in either orientation."""
    damaged = build_cl8_rep()
    rows, signs = damaged.halves["+"]
    damaged.halves["+"] = rows, (1,) + signs[1:]
    results = run_suites("reps", 0, damaged)
    assert all(x.passed for x in results[:6])
    failed = {x.name: x.detail for x in results if not x.passed}
    assert failed == {
        "conjugation of the spinor lift equals the spin rep (21 basis + 10 group)": _LIFT_MOVES_PSI,
        _FIXED_LINE: "fixed space has dimension 0",
        "the two embeddings differ: only the vector copy fixes e0": _LIFT_MOVES_PSI,
        "chiral rep of the lift factors through rotations; spin rep is odd": _LIFT_MOVES_PSI,
    }
    assert "spinor lift sends -1 to omega8; blade embedding keeps -1" not in failed


# The reps checks that fail at seed 0 when iota_plus lifts by reflections
# (``reflection_iota_plus``), keyed by the damage of a fresh module.  The
# generator checks read c(e_i) as monomials[1 << i], so a damaged c(e2)
# fails them too.
_REFLECTION_LIFT_FAILURES = {
    "flip a sign of gamma_3": {"gamma_anticommutators", "gamma_orthogonal_skew"},
    "send two columns of gamma_3 to one row": {"gamma_anticommutators", "gamma_orthogonal_skew"},
    "c(omega8) is c(e0)": {"embeddings_differ", "minus_one_lift", "monomial_span", "sigma_factors",
                           "spinor_lift_identity", "volume_eigensplit", "volume_signs"},
    "c(omega8) is the identity": {"monomial_span", "volume_eigensplit", "volume_signs"},
    "exchange a row between the halves": {
        "chiral_swap", "embeddings_differ", "fixed_line", "g2_intersection", "sigma_factors",
        "sphere_transitivity", "spinor_lift_identity", "stabilizer_21", "volume_eigensplit",
        "volume_signs"},
    "repeat a row of S+": {
        "chiral_swap", "embeddings_differ", "fixed_line", "g2_intersection", "minus_one_lift",
        "sigma_factors", "sphere_transitivity", "spinor_lift_identity", "stabilizer_21",
        "volume_eigensplit", "volume_signs"},
    "c(e2) is the even c(e0 e1)": {"chiral_swap", "gamma_anticommutators", "monomial_span"},
    "double c(e2)": {"chiral_swap", "gamma_anticommutators", "gamma_orthogonal_skew"},
    "send two S+ columns of c(e2) to one row": {"chiral_swap", "gamma_anticommutators",
                                                "gamma_orthogonal_skew"},
    "keep an S- column of c(e2) in S-": {"chiral_swap", "gamma_anticommutators", "gamma_orthogonal_skew"},
    "reversed S8+ orientation": {"embeddings_differ", "fixed_line", "sigma_factors",
                                 "spinor_lift_identity"},
    "psi = e1": {"embeddings_differ", "fixed_line", "g2_intersection", "sigma_factors",
                 "spinor_lift_identity"},
    "psi = (1, 1, 0, ...)": {"embeddings_differ", "fixed_line", "g2_intersection", "sigma_factors",
                             "spinor_lift_identity"},
}


def _failing_reps_checks(case):
    """check function name -> detail for each reps check that fails at seed 0
    on a fresh module with the damage ``case``."""
    damaged = build_cl8_rep()
    if case == "reversed S8+ orientation":
        rows, signs = damaged.halves["+"]
        damaged.halves["+"] = rows, (1,) + signs[1:]
    elif case == "psi = e1":
        damaged.fixed_spinor = (0, 1) + (0,) * 6
    elif case == "psi = (1, 1, 0, ...)":
        damaged.fixed_spinor = (1, 1) + (0,) * 6
    else:
        _damage(damaged, case)
    checks = {name: check.__name__ for _, name, check in CHECKS}
    return {checks[x.name]: x.detail for x in run_suites("reps", 0, damaged) if not x.passed}


@pytest.mark.parametrize("case", list(_REFLECTION_LIFT_FAILURES))
def test_module_read_lift_fails_where_the_reflection_lift_fails(case, monkeypatch):
    """Reading the lift off the module keeps every failure of the reflection
    lift on a damaged module, and no failure is an untyped lookup error."""
    failed = _failing_reps_checks(case)
    assert set(failed) >= _REFLECTION_LIFT_FAILURES[case]
    bad = ("KeyError", "ValueError: too many values", "IndexError")
    assert not [detail for detail in failed.values() if detail.startswith(bad)]
    monkeypatch.setattr(verify, "iota_plus", reflection_iota_plus)
    assert set(_failing_reps_checks(case)) == _REFLECTION_LIFT_FAILURES[case]


def _shear(n):
    return [[int(i == j or (i, j) == (0, 1)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param([[2 * x for x in row] for row in la.identity(8)], id="twice-identity"),
        pytest.param(_shear(8), id="shear"),
        pytest.param([[-x if i == 7 else x for x in row] for i, row in enumerate(la.identity(8))],
                     id="reflection"),
        pytest.param([[0] * 8] * 8, id="zero"),
    ],
)
def test_iota_plus_rejects_a_spin_rep_that_is_no_rotation(rep, rows):
    """The delta7 pair is not checked as a rotation on its own: the final
    certificate of iota_plus (SpinElement and the fixed spinor) rejects
    every matrix that is not one."""
    with pytest.raises(InternalCheckError, match="^candidate lift moves the fixed spinor line$"):
        iota_plus(rep, la.exact(1, rows))


@pytest.mark.parametrize(
    "r, error",
    [
        pytest.param(SpinElement(Multivector.scalar(7, 1)), TypeError, id="spin-element"),
        pytest.param([1, I8], TypeError, id="list"),
        pytest.param((1, 5), TypeError, id="rows-not-iterable"),
        pytest.param((1, [[0.5] * 8] * 8), TypeError, id="float-entries"),
        pytest.param((1,), DimensionMismatchError, id="one-entry"),
        pytest.param((1, I8, 1), DimensionMismatchError, id="three-entries"),
        pytest.param((1, ()), DimensionMismatchError, id="no-rows"),
        pytest.param((1, I8[:7]), DimensionMismatchError, id="seven-rows"),
        pytest.param((1, I8 + I8[:1]), DimensionMismatchError, id="nine-rows"),
        pytest.param((1, [row[:7] for row in I8]), DimensionMismatchError, id="seven-columns"),
        pytest.param((1, I8[:7] + ((1,) * 7,)), DimensionMismatchError, id="ragged"),
    ],
)
def test_iota_plus_reads_only_a_delta7_pair(rep, r, error):
    """iota_plus takes the (d, rows) pair of an 8x8 matrix: any other value
    raises TypeError or DimensionMismatchError, never an index error."""
    with pytest.raises(error):
        iota_plus(rep, r)


def test_wrong_fixed_spinor_fails_the_fixed_line():
    """psi is a constant of the model, and the fixed-line check certifies it:
    another basis spinor spans no fixed line of the spinor-type so(7) copy."""
    damaged = build_cl8_rep()
    damaged.fixed_spinor = (0, 1) + (0,) * 6
    (result,) = [x for x in run_suites("reps", 0, damaged) if x.name == _FIXED_LINE]
    assert (result.passed, result.detail) == (
        False, "fixed line is not spanned by the model's fixed spinor"
    )


def test_reps_verdict_builds_no_16_wide_matrix(rep, monkeypatch):
    """The reps checks read the signed permutations: no la.mat_mul operand
    of the whole verdict has 16 rows or 16 columns."""
    shapes, real_mat_mul = [], la.mat_mul

    def spy(a, b):
        shapes.extend((len(m), len(m[0]) if m else 0) for m in (a, b))
        return real_mat_mul(a, b)

    monkeypatch.setattr(la, "mat_mul", spy)
    assert all(x.passed for x in run_suites("reps", 0, rep))
    assert shapes and not [s for s in shapes if 16 in s]


def test_gamma_square_is_minus_identity(rep):
    assert sp_compose(rep.monomials[1], rep.monomials[1]) == (tuple(range(16)), (-1,) * 16)
    _, g0 = la.exact(1, dense_signed_perm(rep.monomials[1]))
    assert la.mat_mul(g0, g0) == _negated(I16)


def test_monomial_span_is_full(rep):
    assert monomial_span_rank(rep) == 256


def _ranked_grams(rep, monkeypatch):
    """(rank, groups, Grams) of monomial_span_rank: the groups of
    ``_monomial_blocks`` and the Gram of each, caught on its way into
    la.rank in the same order."""
    seen, real_rank = [], la.rank
    monkeypatch.setattr(la, "rank", lambda m: seen.append(m) or real_rank(m))
    r = monomial_span_rank(rep)
    monkeypatch.setattr(la, "rank", real_rank)
    groups = gammarep._monomial_blocks(rep)
    assert len(seen) == len(groups)
    return r, groups, seen


def _assert_blocked_trace_form(rep, groups, grams):
    """The groups partition the 256 masks, the trace form of the flattened
    monomials is 0 between groups, and each Gram is the trace form of its
    group's flattened rows."""
    assert sorted(m for group in groups for m in group) == list(range(256))
    rows = [_monomial_row(rep, mask) for mask in range(256)]
    group_of = {m: i for i, group in enumerate(groups) for m in group}
    for a in range(256):
        for b in range(a + 1, 256):
            if group_of[a] != group_of[b]:
                assert sum(map(mul, rows[a], rows[b])) == 0, (a, b)
    for group, gram in zip(groups, grams):
        assert [list(row) for row in gram] == [
            [sum(map(mul, rows[a], rows[b])) for b in group] for a in group
        ]


def test_monomial_span_detects_a_repeated_monomial(monkeypatch):
    damaged = build_cl8_rep()
    damaged.monomials[3] = damaged.monomials[5]
    r, groups, grams = _ranked_grams(damaged, monkeypatch)
    assert r == 255
    _assert_blocked_trace_form(damaged, groups, grams)
    # the repeat joins the class of c(e0 e2), whose Gram alone loses a rank
    deficits = [(len(g) - la.rank(gram), 3 in g, 5 in g) for g, gram in zip(groups, grams)]
    assert sorted(deficits) == [(0, False, False)] * 15 + [(1, True, True)]


def _swapped(sp):
    """sp with the rows of its columns 0 and 1 exchanged: a permutation that
    meets the class of sp on 14 positions and other classes on 2."""
    perm, sign = sp
    return (perm[1], perm[0]) + perm[2:], sign


@pytest.mark.parametrize(
    "masks, want",
    [
        ((3,), 256),  # the new class is met early and grows as classes join it
        ((200,), 256),  # it is met last and merges groups that were apart
        ((3, 200), 255),  # two equal planted monomials: one dependency
    ],
)
def test_monomial_groups_merge_where_supports_meet(masks, want, monkeypatch):
    damaged = build_cl8_rep()
    planted = _swapped(damaged.monomials[masks[0]])
    for mask in masks:
        damaged.monomials[mask] = planted
    r, groups, grams = _ranked_grams(damaged, monkeypatch)
    _assert_blocked_trace_form(damaged, groups, grams)
    # the planted class meets the rest of its source's class (15) and the
    # class (16) holding both positions it moved to: the three merge
    (merged,) = [g for g in groups if masks[0] in g]
    assert len(groups) == 15 and len(merged) == 31 + len(masks)
    # the dense oracle: the rank of the 256 flattened matrices as rows
    assert r == la.rank([_monomial_row(damaged, mask) for mask in range(256)]) == want


def test_reordered_fano_line_is_a_failed_check(monkeypatch, capsys):
    """A broken module is a report with FAIL lines and exit code 1: the
    clifford and spin checks, which do not read the module, still pass."""
    lines = list(gammarep._FANO_LINES)
    lines[0] = (1, 4, 2)
    monkeypatch.setattr(gammarep, "_FANO_LINES", tuple(lines))
    assert cli.main(["verify", "all", "--seed", "42"]) == 1
    checks = capsys.readouterr().out.splitlines()[1:-1]
    assert len(checks) == len(CHECKS)
    for (scope, name, _), line in zip(CHECKS, checks):
        assert line.startswith(name)
        assert scope == "reps" or line.endswith("  PASS")
    (anticommutators,) = [x for x in checks if x.startswith("gamma anticommutators")]
    assert anticommutators.endswith("  FAIL  [pair (1,3)]")


def _monomial_row(rep, mask):
    """The monomial matrix c(e_mask) flattened row-major to 256 integers."""
    perm, sign = rep.monomials[mask]
    row = [0] * 256
    for j in range(16):
        row[perm[j] * 16 + j] = sign[j]
    return row


def test_monomial_gram_is_diagonal(rep, monkeypatch):
    # tr(c(e_S)^T c(e_T)) = 16 delta_ST: an independent orthogonality witness
    # (the trace form is the dot product of the flattened matrices), and
    # the Grams that monomial_span_rank ranks, one per permutation class
    r, groups, grams = _ranked_grams(rep, monkeypatch)
    assert r == 256
    assert sorted(map(len, groups)) == [16] * 16
    _assert_blocked_trace_form(rep, groups, grams)
    for gram in grams:
        assert [list(row) for row in gram] == [[16 * x for x in row] for row in I16]


def test_reps_verdict_ranks_no_more_than_28_rows(rep, monkeypatch):
    """No la.rank operand of the whole reps verdict has more than 28 rows,
    the so(8) basis: the monomial span is ranked group by group.  By (rows,
    columns, rank) the operands are the 16 trace Grams (16 each), the 28 x 8
    so(8) and 21 x 8 so(7) stabilizer images (7), the 21 x 28 so(7)
    coordinate rows (21) and embeddings_differ's R - d I (8, no fixed
    vector), each rank also the Fraction RREF's."""
    seen, real_rank = [], la.rank
    monkeypatch.setattr(la, "rank", lambda m: seen.append(m) or real_rank(m))
    assert all(x.passed for x in run_suites("reps", 0, rep))
    monkeypatch.setattr(la, "rank", real_rank)
    assert seen and max(map(len, seen)) <= 28
    ranks = Counter((len(m), len(m[0]), la.rank(m)) for m in seen)
    assert ranks == {(16, 16, 16): 16, (28, 8, 7): 4, (21, 8, 7): 10, (21, 28, 21): 3, (8, 8, 8): 1}
    for m in seen:
        assert la.rank(m) == len(fraction_rref([[Fraction(x) for x in row] for row in m])[1])


def test_rank_checks_never_reach_the_reduced_form(rep, monkeypatch):
    """monomial_span, stabilizer_21, sphere_transitivity and embeddings_differ
    read ranks alone, which stop at row echelon form: with kernel_basis, the
    one reader of the back-cleared pivots, made to raise, all four PASS."""

    def back_cleared(a):
        raise AssertionError("rank reached the reduced row echelon form")

    monkeypatch.setattr(la, "kernel_basis", back_cleared)
    checks = {check: name for _, name, check in CHECKS}
    for check in (
        verify.monomial_span,
        verify.stabilizer_21,
        verify.sphere_transitivity,
        verify.embeddings_differ,
    ):
        result = verify._run(checks[check], check, {"rep": rep}, 0)
        assert (result.passed, result.detail) == (True, "")
    with pytest.raises(AssertionError, match="reduced row echelon"):
        la.kernel_basis(((1, 2),))


def test_orbit_checks_pass_no_basis_spinors(rep, monkeypatch):
    """stabilizer_21, sphere_transitivity and g2_intersection read each image
    c(x) psi through half_images on the spinors themselves, one call per
    algebra element with all of the check's spinors: they never pass the 8
    basis spinors, which build the 8x8 block of c(x); the spy does see
    chiral_action_matrix pass them.  g2_intersection is handed the so(7)
    images built before the spy counts, as run_suites builds them once per
    run, and its basis is read off their coordinates."""
    so7 = verify._spinor_so7(rep)
    calls, real = [], gammarep.half_images
    monkeypatch.setattr(gammarep, "half_images", lambda *a: calls.append(a[3]) or real(*a))
    monkeypatch.setattr(verify, "half_images", gammarep.half_images)
    basis = [list(row) for row in I8]
    names = {check: name for _, name, check in CHECKS}
    counts = []
    for check in (verify.stabilizer_21, verify.sphere_transitivity, verify.g2_intersection):
        calls.clear()
        rng = random.Random(f"0:{names[check]}")
        assert (check(rep, so7) if check is verify.g2_intersection else check(rep, rng)) is None
        assert calls and all([list(v) for v in vectors] != basis for vectors in calls)
        counts.append(len(calls))
    assert counts == [28, 21, 14]  # so(8) for psi and 3 spinors; so(7) for 10; g2 for psi
    calls.clear()
    assert chiral_action_matrix(rep, volume_element(8), "+") == (1, I8)
    assert [[list(v) for v in vectors] for vectors in calls] == [basis]


_OTHER_HALF = {"+": "-", "-": "+"}
_EVEN_MASKS = [m for m in range(256) if not blade_grade(m) & 1]
_ODD_MASKS = [m for m in range(256) if blade_grade(m) & 1]


def _half_block(rep, a, source, target):
    """The matrix of c(a) from half ``source`` to half ``target`` as an exact
    pair: column j is half_images of basis spinor j of the source."""
    return la.exact(a.d, zip(*half_images(rep, a, source, I8, target)))


def _parity_part(a, parity):
    """The terms of a whose grade has the given parity."""
    return Multivector(8, {m: c for m, c in fraction_terms(a).items() if blade_grade(m) & 1 == parity})


def test_clifford_action_is_an_algebra_map(rep):
    """c(ab) = c(a) c(b) on the half blocks: b takes each source half to a
    half by its parity, and a takes that one on.  Even.even is checked on
    both halves and odd.odd as the S+ -> S- -> S+ composite (and the reverse).
    Dense elements, split by parity, match the Fraction oracle's blocks."""
    rng = random.Random(4)
    for i in range(10):  # every pair of parities, each at least twice
        pa, pb = i & 1, i >> 1 & 1
        a = Multivector(
            8, {rng.choice((_EVEN_MASKS, _ODD_MASKS)[pa]): Fraction(rng.randint(-5, 5), rng.randint(1, 3))}
        )
        b = Multivector(8, {rng.choice((_EVEN_MASKS, _ODD_MASKS)[pb]): rng.randint(-4, 4)})
        for h in "+-":
            hb = _OTHER_HALF[h] if pb else h
            hab = _OTHER_HALF[hb] if pa else hb
            assert _half_block(rep, a * b, h, hab) == _product(
                _half_block(rep, a, hb, hab), _half_block(rep, b, h, hb)
            )
    for _ in range(10):
        a = Multivector(
            8,
            {
                rng.randrange(256): Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for _ in range(rng.randint(0, 40))
            },
        )
        m = fraction_clifford_action(rep, a)
        for parity, h in product((0, 1), "+-"):
            t = _OTHER_HALF[h] if parity else h
            source, target = dense_signed_perm(rep.halves[h]), dense_signed_perm(rep.halves[t])
            want = fraction_mat_mul(la.transpose(target), fraction_mat_mul(m, source))
            assert fraction_view(_half_block(rep, _parity_part(a, parity), h, t)) == want
    for h in "+-":
        assert _half_block(rep, Multivector.scalar(8, 1), h, h) == (1, I8)


def test_half_images_match_the_dense_oracle(rep):
    """half_images on all four (source, target) pairs against the Fraction
    oracle, on zero, one-entry and dense vectors and the numerators of the
    test spinors in one call.  The even elements include spin lifts, their
    Lie algebra and -1; an even element keeps each half and an odd one swaps
    them, so each raises ChiralityError on the other two pairs, and a mixed
    one on all four."""
    rng = random.Random(44)

    def element(masks):
        return Multivector(8, {rng.choice(masks): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
                               for _ in range(rng.randint(1, 12))})

    def row(entries):
        """The integer row of width 8 with the given (j, x) entries."""
        v = [0] * 8
        for j, x in entries:
            v[j] = x
        return v

    vectors = [[0] * 8, row([(rng.randrange(8), rng.choice((-3, -1, 2, 5)))])]
    vectors += [[rng.randint(-9, 9) for _ in range(8)] for _ in range(2)]
    vectors += [row((j, rng.randint(-4, 4)) for j in rng.sample(range(8), 3))]
    vectors += [list(la.exact(1, [v])[1][0]) for v in _spinors(rep)]
    even = [element(_EVEN_MASKS) for _ in range(4)] + [Multivector.scalar(8, 1), volume_element(8)]
    even += [spinor_lift(rep, random_spin(7, 2, 51)).value, random_spin(8, 2, 53).value]
    even += [Multivector.scalar(8, -1), Multivector.blade(8, [2, 5])]
    even += spinor_so7(rep, spin7_lie_basis()[::10])
    kinds = {
        "even": even,
        "odd": [element(_ODD_MASKS) for _ in range(4)] + [Multivector.basis_vector(8, i) for i in range(8)]
        + [random_spin(8, 1, 6).value * Multivector.basis_vector(8, 3)],
        "mixed": [element(_EVEN_MASKS) + element(_ODD_MASKS) for _ in range(3)]
        + [Multivector.scalar(8, 1) + Multivector.basis_vector(8, 0)],
    }
    for kind, elements in kinds.items():
        for a, (source, target) in product(elements, product("+-", repeat=2)):
            if (source == target) != (kind == "even") or kind == "mixed":
                with pytest.raises(ChiralityError):
                    fraction_half_images(rep, a, source, vectors, target)
                with pytest.raises(ChiralityError, match="does not preserve the chiral subspace$"):
                    half_images(rep, a, source, vectors, target)
                # the zero vector alone has the zero image in any half
                assert half_images(rep, a, source, [[0] * 8], target) == [[0] * 8]
                continue
            want = fraction_half_images(rep, a, source, vectors, target)
            got = half_images(rep, a, source, vectors, target)
            assert [tuple(Fraction(x, a.d) for x in image) for image in got] == want
            if source == target:
                assert half_images(rep, a, source, vectors) == got
    assert half_images(rep, volume_element(8), "-", []) == []
    # odd, but (1 - omega8)/2 annihilates S8+, so every image of S8+ is 0 in either half
    kill = Multivector.basis_vector(8, 0) * (Multivector.scalar(8, 1) - volume_element(8)) * Fraction(1, 2)
    for target in "+-":
        assert half_images(rep, kill, "+", vectors, target) == [[0] * 8] * len(vectors)
        assert fraction_half_images(rep, kill, "+", vectors, target) == [(0,) * 8] * len(vectors)
    for bad in ("", "full", "+-", None):
        with pytest.raises(ValueError, match="^chirality must be '\\+' or '-'$"):
            half_images(rep, Multivector.scalar(8, 1), bad, vectors)
        if bad is not None:
            with pytest.raises(ValueError, match="^chirality must be '\\+' or '-'$"):
                half_images(rep, Multivector.scalar(8, 1), "+", vectors, bad)
    with pytest.raises(DimensionMismatchError, match="element of Cl\\(0,8\\)$"):
        half_images(rep, Multivector.scalar(7, 1), "+", vectors)
    # rows of width 8 and nothing else: the (j, x) lists of the old sparse
    # form, read there as basis spinor 7, as 3 * (spinor 0) or an IndexError,
    # are rows of the wrong width here
    for width in (7, 9):
        with pytest.raises(DimensionMismatchError, match=f"^a spinor of a half needs 8 entries, got {width}$"):
            half_images(rep, Multivector.scalar(8, 1), "+", [[1] * width] * 2)
    for bad in ([(-1, 1)], [(0, 1), (0, 2)], [(8, 1)], []):
        with pytest.raises(DimensionMismatchError, match="^a spinor of a half needs 8 entries, got [0-2]$"):
            half_images(rep, Multivector.scalar(8, 1), "+", [bad])
    for ragged in (vectors + [[1] * 7], [[1] * 9] + vectors, [[1] * 8, [1] * 9]):
        with pytest.raises(DimensionMismatchError, match="^ragged matrix$"):
            half_images(rep, Multivector.scalar(8, 1), "+", ragged)


def test_omega8_eigenspaces(rep):
    omega = fraction_clifford_action(rep, volume_element(8))
    plus, minus = dense_signed_perm(rep.halves["+"]), dense_signed_perm(rep.halves["-"])
    assert fraction_mat_mul(omega, omega) == I16
    assert fraction_mat_mul(omega, plus) == plus
    assert fraction_mat_mul(omega, minus) == _negated(minus)
    assert fraction_mat_mul(la.transpose(plus), plus) == I8
    assert fraction_mat_mul(la.transpose(minus), minus) == I8


def test_chiral_action_matches_the_dense_oracle(rep):
    rng = random.Random(12)
    even_masks = [m for m in range(256) if not bin(m).count("1") & 1]
    elements = [
        Multivector(
            8,
            {
                rng.choice(even_masks): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                for _ in range(rng.randint(1, 12))
            },
        )
        for _ in range(12)
    ]
    elements += spinor_so7(rep)
    for a in elements:
        for chirality in ("+", "-"):
            # exact() of the oracle's Fractions is the one lowest-terms pair;
            # its images of the 8 unit rows are the matrix's columns
            want = la.exact(1, zip(*fraction_half_images(rep, a, chirality, I8)))
            assert chiral_action_matrix(rep, a, chirality) == want


def test_chiral_action_and_oracle_reject_unit_vectors(rep):
    for i in range(8):
        e = Multivector.basis_vector(8, i)
        for chirality in ("+", "-"):
            with pytest.raises(ChiralityError):
                chiral_action_matrix(rep, e, chirality)
            with pytest.raises(ChiralityError):
                fraction_half_images(rep, e, chirality, I8)
    with pytest.raises(ValueError):
        chiral_action_matrix(rep, Multivector.scalar(8, 1), "full")


def test_odd_element_killing_the_positive_half_acts_as_zero(rep):
    # e0 (1 - omega8)/2 is odd, but (1 - omega8)/2 annihilates S8+, so S8+ is
    # preserved (sent to 0); on S8- it is e0, which leaves the half
    a = Multivector.basis_vector(8, 0) * (Multivector.scalar(8, 1) - volume_element(8)) * Fraction(1, 2)
    zero = ((0,) * 8,) * 8
    assert chiral_action_matrix(rep, a, "+") == (1, zero)
    assert tuple(fraction_half_images(rep, a, "+", I8)) == zero
    with pytest.raises(ChiralityError):
        chiral_action_matrix(rep, a, "-")
    with pytest.raises(ChiralityError):
        fraction_half_images(rep, a, "-", I8)


def test_unit_vectors_swap_halves(rep):
    rng = random.Random(9)
    plus, minus = dense_signed_perm(rep.halves["+"]), dense_signed_perm(rep.halves["-"])
    minus_projector = fraction_mat_mul(minus, la.transpose(minus))
    for _ in range(10):
        v = rational_unit_vector(8, rng)
        m = fraction_clifford_action(rep, v)
        image = fraction_mat_mul(m, plus)
        assert fraction_mat_mul(minus_projector, image) == image
        assert fraction_mat_mul(la.transpose(image), image) == I8
        with pytest.raises(ChiralityError):
            chiral_action_matrix(rep, v, "+")


def test_delta8_values(rep):
    """delta8, the chiral spin representation of Spin(8), is c on one half."""
    assert chiral_action_matrix(rep, Multivector.scalar(8, 1), "+") == (1, I8)
    assert chiral_action_matrix(rep, volume_element(8), "+") == (1, I8)
    assert chiral_action_matrix(rep, volume_element(8), "-") == (1, _negated(I8))


def test_delta8_orthogonal_on_20_random_elements(rep):
    for seed in range(20):
        z = random_spin(8, 1, seed)
        d, m = chiral_action_matrix(rep, z.value, "+" if seed % 2 else "-")
        assert _product((d, la.transpose(m)), (d, m)) == (1, I8)


def test_delta8_is_a_homomorphism(rep):
    z1, z2 = random_spin(8, 1, 21).value, random_spin(8, 2, 22).value
    assert chiral_action_matrix(rep, z1 * z2, "+") == _product(
        chiral_action_matrix(rep, z1, "+"), chiral_action_matrix(rep, z2, "+")
    )


@pytest.mark.parametrize("chirality", ["+", "-"])
def test_chiral_action_domain_errors(rep, chirality):
    with pytest.raises(DimensionMismatchError, match="element of Cl\\(0,8\\)$"):
        chiral_action_matrix(rep, random_spin(7, 1, 5).value, chirality)
    odd = random_spin(8, 1, 6).value * Multivector.basis_vector(8, 3)
    mixed = Multivector.scalar(8, 1) + Multivector.basis_vector(8, 0)
    for a in (Multivector.basis_vector(8, 0), odd, mixed):
        with pytest.raises(ChiralityError, match="does not preserve the chiral subspace$"):
            chiral_action_matrix(rep, a, chirality)


def test_delta7_values(rep):
    assert delta7(rep, Multivector.scalar(7, 1)) == (1, I8)
    assert delta7(rep, Multivector.scalar(7, -1)) == (1, _negated(I8))
    d, m = delta7(rep, Multivector.blade(7, [0, 1]))  # embeds as e1 e2
    assert _product((d, la.transpose(m)), (d, m)) == (1, I8)
    assert _product((d, m), (d, m)) == (1, _negated(I8))  # (e1 e2)^2 = -1


def test_delta7_domain_errors(rep):
    z7 = random_spin(7, 2, 13).value
    for bad in (
        Multivector.blade(8, [0, 1]),  # uses generator 0
        embed_spin7(z7),  # already embedded: Cl(0,8) is not the domain
        Multivector.basis_vector(7, 0),  # odd element
        z7 + Multivector.basis_vector(7, 0),  # mixed parity
    ):
        with pytest.raises(EmbeddingDomainError):
            embed_spin7(bad)
        with pytest.raises(EmbeddingDomainError):
            delta7(rep, bad)


def test_iota_vector(rep):
    z = random_spin(7, 2, 31)
    eta = iota_vector(z)
    assert eta.value == embed_spin7(z.value)
    d, r = adjoint_action(eta).entries
    assert tuple(r[i][0] for i in range(8)) == (d,) + (0,) * 7
    minus_one = SpinElement(Multivector.scalar(7, -1))
    assert iota_vector(minus_one).value == Multivector.scalar(8, -1)


def test_iota_plus_defining_properties(rep):
    one = SpinElement(Multivector.scalar(7, 1))
    minus_one = SpinElement(Multivector.scalar(7, -1))
    assert spinor_lift(rep, one).value == Multivector.scalar(8, 1)
    assert spinor_lift(rep, minus_one).value == volume_element(8)
    assert spinor_lift(rep, minus_one).value != iota_vector(minus_one).value
    for seed in (41, 42):
        r = delta7(rep, random_spin(7, 2, seed).value)
        assert adjoint_action(iota_plus(rep, r)).entries == r


def test_iota_plus_is_multiplicative(rep):
    rng = random.Random(17)
    for _ in range(3):
        z1 = random_spin(7, rng.randint(1, 2), rng.randrange(10**6))
        z2 = random_spin(7, rng.randint(1, 2), rng.randrange(10**6))
        lhs = spinor_lift(rep, z1 * z2)
        rhs = spinor_lift(rep, z1) * spinor_lift(rep, z2)
        assert lhs.value == rhs.value
        # in particular the conjugation images compose
        assert adjoint_action(lhs).entries == _product(
            adjoint_action(spinor_lift(rep, z1)).entries,
            adjoint_action(spinor_lift(rep, z2)).entries,
        )


def test_iota_plus_matches_the_reflection_oracle(rep):
    """The lift read off the module is the Cartan-Dieudonne lift with the
    sign that fixes psi, sign included, on +-1, seeded draws and products."""
    zetas = [SpinElement(Multivector.scalar(7, s)) for s in (1, -1)]
    rng = random.Random(33)
    draws = [random_spin(7, 1 + i % 2, rng.randrange(10**6)) for i in range(30)]
    zetas += draws + [a * b for a, b in zip(draws[:8], draws[8:16])] + [-z for z in draws[:4]]
    for z in zetas:
        r = delta7(rep, z.value)
        assert iota_plus(rep, r).value == reflection_iota_plus(rep, r).value


def _sign_damaged_module():
    """A fresh module whose even monomials carry signs other than +-1:
    c(e0 e1) a 2 in column 0, c(e2 e3) a -3 in column 1 and a 0 in column 2."""
    damaged = build_cl8_rep()
    for mask, column, s in ((0b11, 0, 2), (0b1100, 1, -3), (0b1100, 2, 0)):
        perm, sign = damaged.monomials[mask]
        damaged.monomials[mask] = perm, sign[:column] + (s,) + sign[column + 1 :]
    return damaged


_READ_OUT_MODULES = (build_cl8_rep(), _sign_damaged_module())
_BLOCK = st.lists(st.lists(st.integers(-(2**64), 2**64), min_size=8, max_size=8), min_size=8, max_size=8)


@settings(max_examples=200, deadline=None)
@given(_BLOCK, _BLOCK)
def test_sign_grouped_read_out_matches_the_multiply_form(minus_block, plus_block):
    """On block-diagonal integer matrices, the shape of d^2 c(eta) for an even
    eta, with entries up to 2^64, the sign-grouped index sums equal the
    multiply form sum_j sign[j] M[perm[j]][j], on the model and on a module
    whose even monomials carry the signs 2, -3 and 0."""
    columns = [col + [0] * 8 for col in minus_block] + [[0] * 8 + col for col in plus_block]
    for module in _READ_OUT_MODULES:
        assert gammarep._even_traces(module, columns) == multiply_form_traces(module, columns)


def test_the_module_stores_one_copy_of_each_table():
    """Before any lift the module holds the monomials, the halves and psi
    and nothing else: a generator is read as monomials[1 << i], so there is
    no second copy for a check to certify in place of the one acted with."""
    assert set(vars(build_cl8_rep())) == {"monomials", "halves", "fixed_spinor"}


def test_read_out_table_is_built_on_first_use():
    """In a fresh interpreter, importing the verify stack and building the
    Cl(0,8) module builds no read-out table, so set-up does not pay for it;
    the first lift builds it on the module."""
    src = Path(gammarep.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import spinkit.verify\n"
        "from spinkit.gammarep import build_cl8_rep, delta7, iota_plus\n"
        "from spinkit.multivector import Multivector\n"
        "rep = build_cl8_rep()\n"
        "print('_read_out' in vars(rep))\n"
        "iota_plus(rep, delta7(rep, Multivector.scalar(7, 1)))\n"
        "print('_read_out' in vars(rep))\n"
    )
    # -I: no environment paths; -B: the child leaves no bytecode behind
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def _spy(monkeypatch, real):
    """The argument tuples of every call of ``real`` from any spinkit module,
    rebound under each name that holds it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("spinkit."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_lift_identity_reads_one_delta7_per_element(rep, monkeypatch):
    """The lift identity check, run alone, computes delta7 once per so(7)
    basis element (21, in its per-run input) and once per group draw (10):
    iota_plus lifts the pair the check compares with."""
    calls = _spy(monkeypatch, gammarep.delta7)
    monkeypatch.setattr(verify, "CHECKS", tuple(row for row in CHECKS if row[2] is verify.spinor_lift_identity))
    assert [x.passed for x in run_suites("reps", 0, rep)] == [True]
    assert len(calls) == 21 + 10


@pytest.mark.parametrize("seed", [0, 42])
def test_a_reps_verdict_computes_each_so7_image_once(rep, monkeypatch, seed):
    """One reps verdict computes delta7 once per so(7) basis element and once
    per group element: 21 + 10 (lift identity) + 2 x 5 (sigma factors, z and
    -z) + 1 (minus-one lift) + 1 (embeddings differ).  It lifts each basis
    image once, into the one input that three checks read, and certifies
    41 spin elements: 10 + 5 + 1 draws, -1 and its blade embedding, the
    embedding of one draw and the 22 spinor-type lifts."""
    delta7_calls = _spy(monkeypatch, gammarep.delta7)
    lie_lift_calls = _spy(monkeypatch, spingroup.lie_lift)
    certified, real = [], SpinElement._validate
    monkeypatch.setattr(SpinElement, "_validate", lambda self: certified.append(self) or real(self))
    assert all(x.passed for x in run_suites("reps", seed, rep))
    assert len(delta7_calls) == 21 + 10 + 2 * 5 + 1 + 1 == 43
    # after the minus-one lift's call, the images' builder runs for the lift identity
    assert [args[1] for args in delta7_calls[1:22]] == spin7_lie_basis()
    assert len(lie_lift_calls) == 21
    assert len(certified) == 41


@pytest.mark.parametrize("case", ["exchange a row between the halves", "repeat a row of S+"])
def test_a_raising_input_builder_fails_each_check_that_reads_it(monkeypatch, case):
    """On these damages delta7 raises on an so(7) basis element, so the
    builder of the per-run so(7) images raises, once: each of the three
    checks that read the images reports that raise as its FAIL, and the
    verdict still has all 14 rows."""
    builds, real = [], verify._INPUTS["spinor_so7"]
    monkeypatch.setitem(verify._INPUTS, "spinor_so7", lambda rep: builds.append(rep) or real(rep))
    damaged = build_cl8_rep()
    _damage(damaged, case)
    results = run_suites("reps", 0, damaged)
    assert len(results) == 14 and builds == [damaged]
    details = {x.name: x.detail for x in results}
    raised = "ChiralityError: element does not preserve the chiral subspace"
    assert [details[name] for name in (_LIFT_IDENTITY, _FIXED_LINE, _G2)] == [raised] * 3


def test_only_the_spin_scope_lifts_by_reflections(rep, monkeypatch):
    """A reps verdict calls lift_rotation 0 times, since iota_plus reads its
    lift off the module; the spin scope's lift check calls it 6 times."""
    calls = _spy(monkeypatch, spingroup.lift_rotation)
    assert all(x.passed for x in run_suites("reps", 0, rep)) and len(calls) == 0
    assert all(x.passed for x in run_suites("spin", 0)) and len(calls) == 6


def test_lie_level_lift_identity(rep):
    for x, b in zip(spin7_lie_basis(), spinor_so7(rep)):
        assert ad_differential(b).entries == delta7(rep, x)


def test_common_fixed_space(rep):
    full = common_fixed_space(rep, [])
    assert len(full) == 8
    line = common_fixed_space(rep, spinor_so7(rep))
    assert line == [rep.fixed_spinor]
    assert full == list(I8)
    psi = rep.fixed_spinor
    assert psi == line[0]
    assert sum(c * c for c in psi) > 0
    sub_basis = [Multivector.blade(7, [i, j]) for i in range(6) for j in range(i + 1, 6)]
    sub_space = common_fixed_space(rep, spinor_so7(rep, sub_basis))
    assert len(sub_space) >= 1
    # psi lies in the span: appending it does not raise the rank
    assert la.rank(sub_space + [psi]) == la.rank(sub_space)


def test_stabilizer_dimensions(rep):
    rng = random.Random(23)
    psis = [rep.fixed_spinor] + [rational_unit_tuple(8, rng)[1] for _ in range(3)]
    assert stabilizer_dimensions(rep, psis) == [21] * 4
    assert stabilizer_dimensions(rep, []) == []
    with pytest.raises(ValueError, match="zero spinor"):
        stabilizer_dimensions(rep, [(0,) * 8])


def _spinors(rep):
    """The fixed spinor, random unit spinors and a spinor in thirds."""
    rng = random.Random(29)
    return [rep.fixed_spinor] + [rational_unit_tuple(8, rng)[1] for _ in range(4)] + [
        tuple(Fraction(x, 3) for x in (1, -2, 0, 5, 0, 0, 7, -1))
    ]


def test_default_stabilizer_basis_has_identity_coordinates():
    """stabilizer_dimensions checks no independence for its default basis,
    whose coordinate rows are the 28x28 identity over denominator 1."""
    assert [x.d for x in gammarep._BIVECTOR_BASIS] == [1] * 28
    coords = [gammarep.bivector_coordinates(x) for x in gammarep._BIVECTOR_BASIS]
    assert tuple(coords) == la.identity(28)


def test_stabilizer_dimension_matches_the_chiral_matrix_oracle(rep):
    """stabilizer_dimensions, spinor by spinor and over all the spinors at
    once, matches the oracle in every algebra."""
    rng = random.Random(31)
    full = [Multivector(8, {m: 1}) for m in gammarep._BIVECTOR_MASKS]
    algebras = [
        [embed_spin7(x) for x in spin7_lie_basis()],
        spinor_so7(rep),
        g2_intersection_basis(spinor_so7(rep)),
    ]
    algebras += [rng.sample(full, k) for k in (1, 5, 12, 20)]
    while len(algebras) < 10:  # random integer combinations, kept when independent
        k = rng.randint(2, 9)
        combos = [sum((x * rng.randint(-3, 3) for x in rng.sample(full, 3)), Multivector(8, {}))
                  for _ in range(k)]
        if la.rank([gammarep.bivector_coordinates(x) for x in combos]) == k:
            algebras.append(combos)
    psis = _spinors(rep)
    dims = set()
    for algebra in [None] + algebras:
        want = [chiral_matrix_stabilizer_dimension(rep, psi, algebra or full) for psi in psis]
        assert [stabilizer_dimensions(rep, [psi], algebra)[0] for psi in psis] == want
        assert stabilizer_dimensions(rep, psis, algebra) == want
        if algebra is not None:
            dims.update(want)
    assert len(dims) > 3


def test_stabilizer_kernel_checks_its_inputs_on_the_call(rep):
    """stabilizer_dimensions raises on the call, before it ranks anything:
    for a zero spinor or a 7-entry one at any position of the list, for a
    dependent algebra and for one of Cl(0,7) elements."""
    psis = _spinors(rep)
    for at in range(len(psis) + 1):
        with pytest.raises(ValueError, match="^stabilizer of the zero spinor is not defined$"):
            stabilizer_dimensions(rep, psis[:at] + [(0,) * 8] + psis[at:])
        with pytest.raises(DimensionMismatchError, match="^a positive spinor needs 8 components, got 7$"):
            stabilizer_dimensions(rep, psis[:at] + [(1,) * 7] + psis[at:])
    algebra = [embed_spin7(x) for x in spin7_lie_basis()]
    for dependent in (algebra + algebra[:1], algebra[:5] + [algebra[0] + algebra[3] * 2]):
        with pytest.raises(ValueError, match="^algebra basis must be linearly independent$"):
            stabilizer_dimensions(rep, psis, dependent)
    with pytest.raises(ValueError, match="^expected a bivector in Cl\\(0,8\\)$"):
        stabilizer_dimensions(rep, psis, spin7_lie_basis())


def test_sphere_transitivity_proves_its_algebra_independent_once(rep, monkeypatch):
    """The check ranks its 10 spinors in one so(7) copy: it reads the 21
    basis coordinates once, not 210 times, and ranks 1 + 10 matrices."""
    coordinates, real_coordinates = [], gammarep.bivector_coordinates
    monkeypatch.setattr(
        gammarep, "bivector_coordinates", lambda a: coordinates.append(a) or real_coordinates(a)
    )
    ranks, real_rank = [], la.rank
    monkeypatch.setattr(la, "rank", lambda m: ranks.append(m) or real_rank(m))
    name = "chiral so(7) stabilizer of 10 random unit spinors is 14-dim (orbit rank 7)"
    assert verify.sphere_transitivity(rep, random.Random(f"0:{name}")) is None
    assert len(coordinates) == 21 and len(ranks) == 11


def test_g2_intersection(rep):
    basis = g2_intersection_basis(spinor_so7(rep))
    assert len(basis) == 14  # the dimension of the intersection
    psi = rep.fixed_spinor
    for z in basis:
        _, m = chiral_action_matrix(rep, z, "+")
        assert not any(la.mat_mul((psi,), la.transpose(m))[0])  # (m psi)^T
        col0 = tuple(ad_differential(z).entries[1][i][0] for i in range(8))
        assert not any(col0)


def test_intersection_basis_needs_independent_rows():
    a = ((1, 0, 0), (0, 1, 0))
    b = ((0, 1, 1), (1, 0, 0))
    assert la.intersection_basis(a, b) == ((1, 0, 0),)
    with pytest.raises(ValueError):
        la.intersection_basis(a + a[:1], b)
    with pytest.raises(ValueError):
        la.intersection_basis(a, b + b[:1])


def test_sphere_transitivity(rep):
    # the chiral so(7) stabilizes a 14-dim subalgebra at every unit spinor,
    # so each orbit has rank 21 - 14 = 7, the dimension of the 7-sphere
    rng = random.Random(3)
    algebra = [embed_spin7(x) for x in spin7_lie_basis()]
    for _ in range(10):
        assert stabilizer_dimensions(rep, [rational_unit_tuple(8, rng)[1]], algebra) == [14]


def test_sigma_plus_factors_through_rotations(rep):
    z = random_spin(7, 2, 77)
    lift, lift_of_minus = spinor_lift(rep, z).value, spinor_lift(rep, -z).value
    assert chiral_action_matrix(rep, lift, "+") == chiral_action_matrix(rep, lift_of_minus, "+")
    d, m = delta7(rep, z.value)
    assert delta7(rep, -z.value) == (d, _negated(m))


def test_spinor_type_validation(rep):
    # a spinor is a row of eight exact entries of S8+
    for entries in ((1, 0, 0), (1,) * 7, (1,) + (0,) * 15):
        with pytest.raises(DimensionMismatchError, match=f"got {len(entries)}$"):
            stabilizer_dimensions(rep, [entries])
    with pytest.raises(TypeError, match="not float$"):
        stabilizer_dimensions(rep, [[0.5] + [0] * 7])
    # the scale of a spinor does not change its stabilizer
    assert stabilizer_dimensions(rep, [[Fraction(1, 6)] + [0] * 7]) == [21]
