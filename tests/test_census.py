"""Characteristic-class census arithmetic and catalogue I/O."""

import inspect
import json
from fractions import Fraction

import pytest

import spinkit.census as census
import spinkit.torsor as torsor
from spinkit.census import (
    MAX_CHAR_NUMBER,
    MAX_H8_Z2_DIM,
    CensusReport,
    ManifoldCharData,
    ahat_genus,
    census_report,
    euler_positive_spinor,
    holonomy_from_ahat,
    torsor_size_cross_check,
)
from spinkit.errors import CensusDataError
from spinkit.fileio import data_path, load_catalogue, load_complex
from spinkit.torsor import MAX_TORSOR_ORDER


def sphere8():
    return ManifoldCharData(
        "S8", p1_sq=0, p2=0, euler=2, h7_rel_rank=0, h8_z2_dim=1, simply_connected=True
    )


def torus8():
    return ManifoldCharData("T8", p1_sq=0, p2=0, euler=0, h7_rel_rank=8, h8_z2_dim=1)


def quaternionic_plane():
    return ManifoldCharData(
        "HP2", p1_sq=4, p2=7, euler=3, h7_rel_rank=0, h8_z2_dim=1, simply_connected=True
    )


def holonomy_sample():
    return ManifoldCharData(
        "sample", p1_sq=768, p2=-96, euler=144, h7_rel_rank=0, h8_z2_dim=1, simply_connected=True
    )


def test_euler_class_formula():
    assert euler_positive_spinor(sphere8()) == 1
    assert euler_positive_spinor(torus8()) == 0
    assert euler_positive_spinor(quaternionic_plane()) == 3
    # linearity in (p1^2, p2, euler) with coefficients (-1/16, 4/16, 8/16)
    basis = [
        ManifoldCharData("a", 16, 0, 0, 0, 2, components=2, has_boundary=True),
        ManifoldCharData("b", 0, 16, 0, 0, 2, components=2, has_boundary=True),
        ManifoldCharData("c", 0, 0, 16, 0, 2, components=2, has_boundary=True),
    ]
    values = [euler_positive_spinor(d) for d in basis]
    assert values == [-1, 4, 8]
    assert all(type(v) is int for v in values)


def test_census_report_computes_e_plus_once(monkeypatch):
    """A report reads e(S+) once and hands it to the count; a record reads
    it once more, at construction, to check that it is an integer."""
    records = [sphere8(), torus8(), quaternionic_plane(), holonomy_sample()]
    calls, real = [], census.euler_positive_spinor
    monkeypatch.setattr(census, "euler_positive_spinor", lambda d: calls.append(d) or real(d))
    for d in records:
        census_report(d)
    assert calls == records


def test_negative_spinor_convention():
    assert census_report(sphere8()).e_s_minus == -1
    zero = ManifoldCharData("flat", 0, 0, 0, 0, 1, has_boundary=True)
    assert census_report(zero).e_s_minus == 0
    d = holonomy_sample()
    assert euler_positive_spinor(d) - census_report(d).e_s_minus == d.euler


def test_vanishing_of_two_forces_the_third():
    # e(S+) - e(S-) = e(TW) makes the three classes linearly dependent
    samples = [sphere8(), torus8(), quaternionic_plane(), holonomy_sample()]
    for d in samples:
        report = census_report(d)
        triple = [report.e_s_plus, report.e_s_minus, Fraction(d.euler)]
        if sum(1 for t in triple if t == 0) >= 2:
            assert all(t == 0 for t in triple)


def test_existence():
    assert not census_report(sphere8()).exists
    assert not census_report(quaternionic_plane()).exists
    assert census_report(torus8()).exists
    assert census_report(holonomy_sample()).exists


def test_counts():
    assert census_report(holonomy_sample()).count == 2
    assert census_report(torus8()).count == "undetermined"
    two = ManifoldCharData("pair", 0, 0, 0, 0, 2, components=2)
    assert census_report(two).count == 4
    assert torsor_size_cross_check(two)
    assert torsor_size_cross_check(holonomy_sample())
    assert torsor_size_cross_check(torus8())
    assert census_report(sphere8()).count is None
    with pytest.raises(CensusDataError, match=r"no Spin\(7\)-structure exists"):
        torsor_size_cross_check(sphere8())
    bounded = ManifoldCharData("bounded", 0, 0, 0, 0, 0, has_boundary=True)
    assert census_report(bounded).count == 1
    widest = ManifoldCharData("widest", 0, 0, 0, 0, MAX_H8_Z2_DIM, has_boundary=True)
    assert len(str(census_report(widest).count)) == 4300


@pytest.mark.parametrize("h8_z2_dim", [7, 14, MAX_H8_Z2_DIM])
def test_cross_check_refuses_groups_over_the_torsor_cap(monkeypatch, h8_z2_dim):
    """2^h8_z2_dim over MAX_TORSOR_ORDER raises, naming the record and the cap,
    before any table is built; 2^6 = 64 is still checked."""
    def no_table(group):
        raise AssertionError(f"built a table for {group}")

    monkeypatch.setattr(torsor, "regular_difference_table", no_table)
    wide = ManifoldCharData("wide", 0, 0, 0, 0, h8_z2_dim, has_boundary=True)
    cap = rf"^wide: .*over the exhaustive torsor cap of {MAX_TORSOR_ORDER}$"
    with pytest.raises(CensusDataError, match=cap):
        torsor_size_cross_check(wide)
    monkeypatch.undo()
    assert MAX_TORSOR_ORDER == 64
    assert torsor_size_cross_check(ManifoldCharData("at-cap", 0, 0, 0, 0, 6, has_boundary=True))


def test_ahat_and_holonomy():
    assert ahat_genus(holonomy_sample()) == 1
    assert holonomy_from_ahat(holonomy_sample()) == "Spin(7)"
    k3k3 = ManifoldCharData(
        "K3xK3", p1_sq=4608, p2=2304, euler=576, h7_rel_rank=0, h8_z2_dim=1, simply_connected=True
    )
    assert ahat_genus(k3k3) == 4
    assert holonomy_from_ahat(k3k3) == "Spin(4)"
    assert ahat_genus(quaternionic_plane()) == 0
    assert holonomy_from_ahat(quaternionic_plane()) is None
    # the same A-hat = 1 numbers without simple connectivity, or with boundary
    assert holonomy_from_ahat(ManifoldCharData("nsc", 768, -96, 144, 0, 1)) is None
    bounded = ManifoldCharData("bounded", 768, -96, 144, 0, 1, has_boundary=True)
    assert holonomy_from_ahat(bounded) is None
    assert census_report(bounded).holonomy_note == ""


def test_validation_rules():
    with pytest.raises(CensusDataError):
        ManifoldCharData("bad", 0, 0, 0, 0, 0)  # closed connected needs h8_z2_dim = 1
    with pytest.raises(CensusDataError):
        ManifoldCharData("bad", 0, 0, 0, 3, 1, simply_connected=True)
    with pytest.raises(CensusDataError, match="h8_z2_dim = components"):
        ManifoldCharData("bad", 0, 0, 0, 0, 5, components=2)  # closed: H^8(W; Z/2) = (Z/2)^c
    with pytest.raises(CensusDataError, match="one component"):
        ManifoldCharData("bad", 0, 0, 0, 0, 2, components=2, simply_connected=True)
    with pytest.raises(CensusDataError, match="nonspin: the census applies only to spin"):
        ManifoldCharData("nonspin", 0, 0, 2, 0, 1, spin=False)
    with pytest.raises(CensusDataError, match=f"wide: h8_z2_dim = {MAX_H8_Z2_DIM + 1} is over"):
        ManifoldCharData("wide", 0, 0, 0, 0, MAX_H8_Z2_DIM + 1, has_boundary=True)
    for key in ("p1_sq", "p2", "euler"):
        for value in (MAX_CHAR_NUMBER + 1, -MAX_CHAR_NUMBER - 1):
            numbers = {"p1_sq": 0, "p2": 0, "euler": 0, key: value}
            with pytest.raises(CensusDataError, match=r"^big: \|p1_sq\|, \|p2\| and \|euler\| must"):
                ManifoldCharData("big", **numbers, h7_rel_rank=0, h8_z2_dim=0, has_boundary=True)


@pytest.mark.parametrize(
    "override",
    [
        {"components": "2"},
        {"p1_sq": 1.5},
        {"euler": True},
        {"h8_z2_dim": None},
        {"simply_connected": "no"},
        {"has_boundary": 1},
        {"spin": 0},
        {"name": 5},
    ],
)
def test_field_types(override):
    fields = dict(name="typed", p1_sq=0, p2=0, euler=0, h7_rel_rank=0, h8_z2_dim=1)
    with pytest.raises(CensusDataError):
        ManifoldCharData(**{**fields, **override})


def test_non_integral_e_plus_rejected():
    # 16 e(S+) = 4 p2 - p1^2 + 8 e must be divisible by 16, with or without boundary
    with pytest.raises(CensusDataError, match=r"^odd: e\(S\+\) = -1/16 is not an integer$"):
        ManifoldCharData("odd", 1, 0, 0, 0, 1, has_boundary=True)
    with pytest.raises(CensusDataError, match=r"^closed: e\(S\+\) = -1/8 is not an integer$"):
        ManifoldCharData("closed", 2, 0, 0, 0, 1)
    with pytest.raises(CensusDataError, match=r"e\(S\+\) = 1/2 is not an integer"):
        ManifoldCharData("half", 0, 2, 0, 0, 1, simply_connected=True)


def test_census_report_and_invariant():
    report = census_report(holonomy_sample())
    assert report.exists and report.count == 2
    assert "Spin(7)" in report.holonomy_note
    # existence is read off e(S+), so no report can contradict it
    assert not CensusReport("x", 1, 0, None, Fraction(0)).exists
    assert CensusReport("y", 0, -2, 1, Fraction(0)).exists


def test_bundled_catalogue_loads():
    records = load_catalogue(data_path("manifolds.json"))
    names = [r.name for r in records]
    assert "S8" in names and "T8" in names and "HP2" in names
    by_name = {r.name: r for r in records}
    assert not census_report(by_name["S8"]).exists
    assert census_report(by_name["closed-holonomy-sample"]).count == 2
    assert census_report(by_name["two-component-sample"]).count == 4


def test_catalogue_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"manifolds": [{"name": "x", "p1_sq": 0}]}')
    with pytest.raises(CensusDataError, match="missing fields"):
        load_catalogue(bad)
    bad.write_text("not json")
    with pytest.raises(CensusDataError, match="JSON"):
        load_catalogue(bad)
    bad.write_text('{"manifolds": [{"name": "x", "p1_sq": 0, "p2": 0, "euler": 0, '
                   '"h7_rel_rank": 0, "h8_z2_dim": 1, "mystery": 3}]}')
    with pytest.raises(CensusDataError, match="unknown fields"):
        load_catalogue(bad)


def test_catalogue_fields_are_the_record_parameters(tmp_path):
    """load_catalogue requires the parameters of ManifoldCharData that have no
    default, accepts those that have one, and rejects any other field."""
    params = inspect.signature(ManifoldCharData).parameters.values()
    required = [p.name for p in params if p.default is p.empty]
    optional = {p.name: p.default for p in params if p.default is not p.empty}
    path = tmp_path / "fields.json"

    def load(record):
        path.write_text(json.dumps({"manifolds": [record]}))
        return load_catalogue(path)

    with pytest.raises(CensusDataError) as exc:
        load({"name": "x"})
    assert str(exc.value) == f"{path}: x is missing fields {required[1:]}"
    record = {"name": "x", **dict.fromkeys(required[1:], 0), "h8_z2_dim": 1}
    assert load(record) == load({**record, **optional})
    with pytest.raises(CensusDataError) as exc:
        load({**record, **optional, "mystery": 3, "absent": 4})
    assert str(exc.value) == f"{path}: x has unknown fields ['absent', 'mystery']"


def test_complex_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    from spinkit.errors import ComplexValidationError

    with pytest.raises(ComplexValidationError, match="line"):
        load_complex(bad)
    bad.write_text('{"cells": [1, 1], "boundary": {"1": [[5], [5]]}}')
    with pytest.raises(ComplexValidationError):
        load_complex(bad)
