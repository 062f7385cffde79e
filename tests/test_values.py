"""The immutable value classes: frozen fields, equality, hashing and repr."""

from fractions import Fraction

import pytest

from spinkit.census import CensusReport, ManifoldCharData
from spinkit.cwcomplex import CWPairComplex, Cochain, CoefficientGroup
from spinkit.multivector import Multivector
from spinkit.snf import AbelianGroup
from spinkit.spingroup import RotationMatrix, SkewMatrix, adjoint_action, random_spin
from spinkit.torsor import ActionTable, DifferenceTable, FiniteAbelianGroup
from spinkit.verify import CheckResult

_POINT = CWPairComplex([1], {}, {})

# each builder gives a fresh instance equal to the last
BUILDERS = [
    lambda: AbelianGroup(1, (2, 4)),
    lambda: CoefficientGroup(3),
    lambda: Cochain(_POINT, 0, CoefficientGroup(2), (5,)),
    lambda: ManifoldCharData("x", 0, 0, 0, 0, 1),
    lambda: CensusReport("x", 0, 0, 2, Fraction(0), "note"),
    lambda: FiniteAbelianGroup((2, 3)),
    lambda: DifferenceTable(FiniteAbelianGroup((1,)), ("a",), {("a", "a"): (0,)}),
    lambda: ActionTable(FiniteAbelianGroup((1,)), ("a",), {((0,), "a"): "a"}),
    lambda: RotationMatrix((1, [[0, -1], [1, 0]])),
    lambda: SkewMatrix((2, [[0, 1], [-1, 0]])),
    lambda: CheckResult("check", True),
]


@pytest.mark.parametrize("build", BUILDERS, ids=lambda build: type(build()).__name__)
def test_value_classes_are_frozen_records(build):
    value = build()
    cls = type(value)
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in cls._fields)
    assert repr(value) == f"{cls.__qualname__}({shown})"
    assert value == build() and value != object()
    if not isinstance(value, Cochain):  # a cochain holds an unhashable complex
        assert hash(value) == hash(build())
    for name in (*cls._fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{cls._fields[0]}'"):
        delattr(value, cls._fields[0])
    assert value == build()


def _interval():
    return CWPairComplex([2, 1], {1: [[-1], [1]]})


def _half_e0():
    return Multivector(3, {1: Fraction(1, 2)})


# certified values that are not Frozen records, each with a field it shows read-only
READ_ONLY = [
    pytest.param(lambda: random_spin(4, 1, 3), "value", id="SpinElement.value"),
    pytest.param(_half_e0, "n", id="Multivector.n"),
    pytest.param(_half_e0, "d", id="Multivector.d"),
    pytest.param(_half_e0, "terms", id="Multivector.terms"),
    pytest.param(_interval, "cells", id="CWPairComplex.cells"),
    pytest.param(_interval, "sub", id="CWPairComplex.sub"),
    pytest.param(_interval, "dim", id="CWPairComplex.dim"),
    pytest.param(_interval, "boundary", id="CWPairComplex.boundary"),
    pytest.param(_interval, "name", id="CWPairComplex.name"),
]


@pytest.mark.parametrize("build, name", READ_ONLY)
def test_certified_fields_refuse_assignment(build, name):
    value = build()
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, {})
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == before


def test_multivector_terms_are_a_read_only_mapping():
    """A spin element's numerators cannot be changed in place, so its
    certified norm and cached rotation stay true of it."""
    z = random_spin(4, 1, 3)
    rotation = adjoint_action(z)
    terms = z.value.terms
    mask = min(terms)
    with pytest.raises(TypeError):
        terms[mask] = 2 * terms[mask]
    with pytest.raises(TypeError):
        del terms[mask]
    assert terms == z.value.terms and len(terms) > 1
    assert z.value * z.value.reverse() == Multivector.scalar(4, 1)
    assert adjoint_action(z) == rotation


def test_table_equality_leaves_the_table_out():
    group = FiniteAbelianGroup((1,))
    first = DifferenceTable(group, ("a",), {("a", "a"): (0,)})
    second = DifferenceTable(group, ("a",), {})
    assert first == second and hash(first) == hash(second)
    assert first != DifferenceTable(group, ("b",), {("a", "a"): (0,)})
    assert ActionTable(group, ("a",), {}) == ActionTable(group, ("a",), {((0,), "a"): "a"})
    assert first != ActionTable(group, ("a",), {})


def test_keywords_and_defaults_are_kept():
    """Each class takes its fields by position or keyword, with the defaults
    its records have always had; validation still runs and normalizes."""
    assert AbelianGroup(free_rank=0).torsion == ()
    assert AbelianGroup(0, torsion=(1, 2)).torsion == (2,)
    assert FiniteAbelianGroup(orders=[2]).orders == (2,)
    assert CheckResult(name="c", passed=False).detail == ""
    d = ManifoldCharData(name="x", p1_sq=0, p2=0, euler=0, h7_rel_rank=0, h8_z2_dim=1)
    assert (d.components, d.simply_connected, d.has_boundary, d.spin) == (1, False, False, True)
    assert CensusReport("x", 0, 0, None, Fraction(1, 2)).holonomy_note == ""
    with pytest.raises(ValueError, match="divisibility chain"):
        AbelianGroup(0, (2, 3))
    with pytest.raises(ValueError, match="not orthogonal"):
        RotationMatrix(entries=(1, [[1, 1], [0, 1]]))
