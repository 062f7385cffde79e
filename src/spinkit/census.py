"""Characteristic-class arithmetic for Spin(7)-structure counting.

Everything here is desk arithmetic on characteristic numbers of a compact
spin 8-manifold W, gathered by ``census_report``:

* the positive spinor bundle has 16 e(S+) = 4 p2 - p1^2 + 8 e(TW), so a
  structure exists iff that rational vanishes;
* when it exists and H^7(W, dW; Z) = 0, the structures extending a fixed
  boundary G2-structure form a torsor over H^8(W, dW; Z/2), hence are
  2^dim many -- exactly two for closed connected W;
* for closed, simply connected cases the A-hat genus
  (7 p1^2 - 4 p2)/5760 pins the holonomy group Spin(8 - A-hat) of a
  torsion-free structure when it lands in {1, 2, 3, 4} (Joyce, *Compact
  Manifolds with Special Holonomy*, 2000, Prop. 10.5.4).

The convention e(S-) = e(S+) - e(TW) is fixed here and repeated in every
emitted report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import CensusDataError, TorsorError
from .torsor import FiniteAbelianGroup, regular_difference_table, verify_difference_axioms

NEGATIVE_CHIRALITY_CONVENTION = "e(S-) = e(S+) - e(TW)"


class DataConsistencyWarning(UserWarning):
    """Characteristic numbers are admissible input but not mutually consistent."""


@dataclass(frozen=True)
class ManifoldCharData:
    """Characteristic numbers and cohomological ranks of a compact 8-manifold."""

    name: str
    p1_sq: int
    p2: int
    euler: int
    h7_rel_rank: int
    h8_z2_dim: int
    components: int = 1
    simply_connected: bool = False
    has_boundary: bool = False
    spin: bool = True

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise CensusDataError(f"{self.name!r}: name must be a string")
        for key in ("p1_sq", "p2", "euler", "h7_rel_rank", "h8_z2_dim", "components"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise CensusDataError(f"{self.name}: {key} must be an integer, got {value!r}")
        for key in ("simply_connected", "has_boundary", "spin"):
            if not isinstance(getattr(self, key), bool):
                raise CensusDataError(f"{self.name}: {key} must be true or false")
        if self.components < 1:
            raise CensusDataError(f"{self.name}: components must be >= 1")
        if self.h7_rel_rank < 0 or self.h8_z2_dim < 0:
            raise CensusDataError(f"{self.name}: cohomological ranks must be >= 0")
        if not self.has_boundary and self.h8_z2_dim != self.components:
            raise CensusDataError(
                f"{self.name}: a closed 8-manifold has h8_z2_dim = components "
                "(one top class per component)"
            )
        if self.simply_connected and self.components != 1:
            raise CensusDataError(f"{self.name}: a simply connected manifold has one component")
        if self.simply_connected and self.h7_rel_rank != 0:
            raise CensusDataError(
                f"{self.name}: simply connected manifolds have h7_rel_rank = 0"
            )

    def _require_spin(self) -> None:
        if not self.spin:
            raise CensusDataError(f"{self.name}: census queries require a spin manifold")


def euler_positive_spinor(d: ManifoldCharData) -> Fraction:
    """e(S+) = (4 p2 - p1^2 + 8 e) / 16; warns when not an integer."""
    d._require_spin()
    value = Fraction(4 * d.p2 - d.p1_sq + 8 * d.euler, 16)
    if value.denominator != 1:
        warnings.warn(
            f"{d.name}: e(S+) = {value} is not an integer; "
            "characteristic numbers are not those of a closed spin 8-manifold",
            DataConsistencyWarning,
            stacklevel=2,
        )
    return value


def ahat_genus(d: ManifoldCharData) -> Fraction:
    """A-hat = (7 p1^2 - 4 p2) / 5760 (degree-8 term of the standard genus)."""
    return Fraction(7 * d.p1_sq - 4 * d.p2, 5760)


def holonomy_from_ahat(d: ManifoldCharData) -> str | None:
    """The holonomy label Spin(8 - A-hat) of a closed, simply connected W whose
    A-hat is an integer in 1..4; None when the criterion does not apply."""
    d._require_spin()
    if d.has_boundary or not d.simply_connected:
        return None
    a = ahat_genus(d)
    return f"Spin({8 - int(a)})" if a.denominator == 1 and 1 <= a <= 4 else None


@dataclass(frozen=True)
class CensusReport:
    """Census outcome for one manifold record."""

    name: str
    e_s_plus: Fraction
    e_s_minus: Fraction
    exists: bool
    count: int | str | None
    ahat: Fraction
    holonomy_note: str = ""

    def __post_init__(self):
        if self.exists != (self.e_s_plus == 0):
            raise CensusDataError("existence flag must mirror the vanishing of e(S+)")


def _structure_count(d: ManifoldCharData, e_plus: Fraction) -> int | str | None:
    """Spin(7)-structures extending a fixed boundary G2-structure, given e(S+).

    None when e(S+) != 0, as then no structure exists.  Otherwise
    2**h8_z2_dim when the relative degree-7 group vanishes (torsor over
    H^8(W, dW; Z/2)), and "undetermined" when it does not, since a nonzero
    primary difference escapes the counting argument.
    """
    if e_plus != 0:
        return None
    return "undetermined" if d.h7_rel_rank > 0 else 2**d.h8_z2_dim


def census_report(d: ManifoldCharData) -> CensusReport:
    """Full per-manifold report with a conditional holonomy note."""
    e_plus = euler_positive_spinor(d)
    count = _structure_count(d, e_plus)
    exists = count is not None
    holonomy = holonomy_from_ahat(d) if exists else None
    note = f"holonomy {holonomy} if a torsion-free structure exists" if holonomy else ""
    return CensusReport(
        name=d.name,
        e_s_plus=e_plus,
        e_s_minus=e_plus - d.euler,
        exists=exists,
        count=count,
        ahat=ahat_genus(d),
        holonomy_note=note,
    )


def count_spin7_structures(d: ManifoldCharData) -> int | str:
    """The census count; raises when no Spin(7)-structure exists."""
    count = _structure_count(d, euler_positive_spinor(d))
    if count is None:
        raise CensusDataError(f"{d.name}: no Spin(7)-structure exists (e(S+) != 0)")
    return count


def torsor_size_cross_check(d: ManifoldCharData) -> bool:
    """Cross-check the count against the torsor module on (Z/2)^h8_z2_dim."""
    expected = count_spin7_structures(d)
    if not isinstance(expected, int):
        return True
    group = FiniteAbelianGroup((2,) * d.h8_z2_dim)
    table = regular_difference_table(group)
    try:
        verify_difference_axioms(table)
    except TorsorError:
        return False
    return len(table.carrier) == expected
