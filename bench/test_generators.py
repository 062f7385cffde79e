"""Checks of the benchmark's known-answer generators on small cases.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import generators as g
from spinkit.census import census_report, torsor_size_cross_check
from spinkit.cwcomplex import CWPairComplex, CoefficientGroup, product_with_interval, relative_cohomology
from spinkit.fileio import data_path, load_catalogue, load_complex


def test_normal_form_merges_coprime_orders():
    assert g.normal_form(0, [2, 3]) == (0, (6,))
    assert g.normal_form(1, [2, 4, 3, 1]) == (1, (2, 12))
    assert g.normal_form(2, []) == (2, ())


@pytest.mark.parametrize("order, count", [(1, 1), (8, 11), (16, 25), (24, 37), (32, 55)])
def test_abelian_group_count(order, count):
    assert g.abelian_group_count(order) == count


def _group(cx, k, q):
    h = relative_cohomology(cx, k, CoefficientGroup(q))
    return h.free_rank, h.torsion


def test_disk8_pair_is_the_bundled_complex_with_h8_z():
    case = g.disk8_pair()
    bundled = load_complex(data_path("disk8_rel_sphere7.json"))
    assert bundled == CWPairComplex(case.cells, case.boundary, case.sub)
    assert case.cohomology[(8, 0)] == (1, ())
    for (k, q), want in case.cohomology.items():
        assert _group(bundled, k, q) == want


def _small_pairs(seed, count=12):
    rng = random.Random(seed)
    return [g.make_pair(rng, f"p{i}", (0, g.PAIR_DIM), rng.randint(0, 1), rng.randint(0, 2), 80, 8) for i in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scrambled_pairs_are_valid_and_keep_y_closed(seed):
    for case in _small_pairs(seed):
        for k in range(2, g.PAIR_DIM + 1):
            a, b = case.boundary[k - 1], case.boundary[k]
            for i in range(len(a)):
                for j in range(case.cells[k]):
                    assert sum(a[i][t] * b[t][j] for t in range(len(b))) == 0
        for k in range(1, g.PAIR_DIM + 1):
            for j, in_y in enumerate(case.sub[k]):
                if in_y:
                    assert all(case.sub[k - 1][i] for i, row in enumerate(case.boundary[k]) if row[j])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scrambled_pairs_have_the_cohomology_of_their_pieces(seed):
    for case in _small_pairs(seed):
        cx = CWPairComplex(case.cells, case.boundary, case.sub)
        for (k, q), want in case.cohomology.items():
            assert _group(cx, k, q) == want, (case.name, k, q)


def test_pairs_round_trip_through_the_file_format(tmp_path):
    for case in _small_pairs(3, 4):
        path = tmp_path / f"{case.name}.json"
        path.write_text(json.dumps(case.to_json()))
        assert load_complex(path) == CWPairComplex(case.cells, case.boundary, case.sub)


def test_cylinder_formula_matches_product_with_interval():
    for case in _small_pairs(4, 6) + [g.disk8_pair()]:
        prod = product_with_interval(CWPairComplex(case.cells, case.boundary, case.sub))
        cells, bd, sub = g.cylinder(case)
        assert prod.cells == cells and prod.boundary == bd
        assert prod.sub == {k: [bool(f) for f in v] for k, v in sub.items()}


def test_streams_repeat_for_a_seed():
    def first(seed, n):
        stream = g.cohomology_cases(random.Random(seed))
        return [next(stream).to_json() for _ in range(n)]

    assert first(5, 4) == first(5, 4)
    assert first(5, 4) != first(6, 4)
    assert [c.record for c in g.catalogue(random.Random(5), 10, "a")] == [
        c.record for c in g.catalogue(random.Random(5), 10, "a")
    ]


def test_catalogue_records_have_the_constructed_census_answers(tmp_path):
    cases = g.catalogue(random.Random(7), 200, "t")
    assert {c.exists for c in cases} == {True, False}
    assert any(c.holonomy_note for c in cases)
    path = tmp_path / "catalogue.json"
    path.write_text(json.dumps({"manifolds": [c.record for c in cases]}))
    for case, d in zip(cases, load_catalogue(path)):
        rec = case.record
        assert Fraction(4 * rec["p2"] - rec["p1_sq"] + 8 * rec["euler"], 16) == case.e_s_plus
        report = census_report(d)
        assert (report.exists, report.count, report.ahat) == (case.exists, case.count, case.ahat)
        assert bool(report.holonomy_note) == case.holonomy_note
        if case.exists:
            assert torsor_size_cross_check(d)
