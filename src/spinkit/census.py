"""Characteristic-class arithmetic for Spin(7)- and G2-structure counting.

Everything here is desk arithmetic on characteristic numbers of a compact
spin 8-manifold W:

* the positive spinor bundle has 16 e(S+) = 4 p2 - p1^2 + 8 e(TW), so a
  structure exists iff that rational vanishes;
* when it exists and H^7(W, dW; Z) = 0, the structures extending a fixed
  boundary G2-structure form a torsor over H^8(W, dW; Z/2), hence are
  2^dim many -- exactly two for closed connected W;
* on a spin 7-manifold the G2-structures form a Z-torsor;
* for closed, simply connected, torsion-free cases the A-hat genus
  (7 p1^2 - 4 p2)/5760 pins the holonomy group Spin(8 - A-hat) when it
  lands in {1, 2, 3, 4}.

The convention e(S-) = e(S+) - e(TW) is fixed here and repeated in every
emitted report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import CensusDataError
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
        if not self.has_boundary and self.components == 1 and self.h8_z2_dim != 1:
            raise CensusDataError(
                f"{self.name}: a closed connected 8-manifold has h8_z2_dim = 1 (top class)"
            )
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


def euler_negative_spinor(d: ManifoldCharData) -> Fraction:
    """e(S-) under the recorded convention e(S-) = e(S+) - e(TW)."""
    return euler_positive_spinor(d) - d.euler


def spin7_exists(d: ManifoldCharData) -> bool:
    """Existence of a Spin(7)-structure: vanishing of e(S+)."""
    return euler_positive_spinor(d) == 0


def count_spin7_structures(d: ManifoldCharData, boundary_g2_fixed: bool = True):
    """Number of Spin(7)-structures extending a fixed boundary G2-structure.

    Returns the integer 2**h8_z2_dim when the relative degree-7 group
    vanishes (torsor over H^8(W, dW; Z/2)); otherwise "undetermined",
    since a nonzero primary difference escapes the counting argument.
    """
    if not spin7_exists(d):
        raise CensusDataError(f"{d.name}: no Spin(7)-structure exists (e(S+) != 0)")
    if d.has_boundary and not boundary_g2_fixed:
        return "undetermined"
    if d.h7_rel_rank > 0:
        return "undetermined"
    return 2**d.h8_z2_dim


def count_g2_structures(spin: bool) -> str:
    """G2-structures on a closed oriented spin 7-manifold form a Z-torsor."""
    return "Z-torsor" if spin else "empty"


def ahat_genus(d: ManifoldCharData) -> Fraction:
    """A-hat = (7 p1^2 - 4 p2) / 5760 (degree-8 term of the standard genus)."""
    return Fraction(7 * d.p1_sq - 4 * d.p2, 5760)


def holonomy_from_ahat(d: ManifoldCharData, torsion_free: bool) -> str:
    """Holonomy label for a closed, simply connected, torsion-free case."""
    if d.has_boundary or not d.simply_connected or not torsion_free:
        raise CensusDataError(
            f"{d.name}: holonomy criterion needs closed, simply connected, torsion-free"
        )
    d._require_spin()
    a = ahat_genus(d)
    if a.denominator == 1 and 1 <= a <= 4:
        return f"Spin({8 - int(a)})"
    return "criterion inapplicable"


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


def census_report(d: ManifoldCharData, boundary_g2_fixed: bool = True) -> CensusReport:
    """Full per-manifold report with a conditional holonomy note."""
    e_plus = euler_positive_spinor(d)
    exists = e_plus == 0
    count = count_spin7_structures(d, boundary_g2_fixed) if exists else None
    a = ahat_genus(d)
    note = ""
    if (
        exists
        and not d.has_boundary
        and d.simply_connected
        and a.denominator == 1
        and 1 <= a <= 4
    ):
        note = f"holonomy Spin({8 - int(a)}) if a torsion-free structure exists"
    return CensusReport(
        name=d.name,
        e_s_plus=e_plus,
        e_s_minus=e_plus - d.euler,
        exists=exists,
        count=count,
        ahat=a,
        holonomy_note=note,
    )


def torsor_size_cross_check(d: ManifoldCharData) -> bool:
    """Cross-check the count against the torsor module on (Z/2)^h8_z2_dim."""
    expected = count_spin7_structures(d)
    if not isinstance(expected, int):
        return True
    group = FiniteAbelianGroup((2,) * d.h8_z2_dim)
    table = regular_difference_table(group)
    if not verify_difference_axioms(table).passed:
        return False
    return len(table.carrier) == expected


def signature_cross_check(d: ManifoldCharData, signature: int) -> bool:
    """Hirzebruch check in dimension 8: 7 p2 - p1^2 = 45 sigma."""
    return 7 * d.p2 - d.p1_sq == 45 * signature
