"""Characteristic-class arithmetic for Spin(7)-structure counting.

Everything here is desk arithmetic on characteristic numbers of a compact
spin 8-manifold W, gathered by ``census_report``:

* the positive spinor bundle has 16 e(S+) = 4 p2 - p1^2 + 8 e(TW), so a
  structure exists iff that integer vanishes;
* when it exists and H^7(W, dW; Z) = 0, the structures extending a fixed
  boundary G2-structure form a torsor over H^8(W, dW; Z/2), hence are
  2^dim many -- exactly two for closed connected W;
* for closed, simply connected cases the A-hat genus
  (7 p1^2 - 4 p2)/5760 pins the holonomy group Spin(8 - A-hat) of a
  torsion-free structure when it lands in {1, 2, 3, 4} (Joyce, *Compact
  Manifolds with Special Holonomy*, 2000, Prop. 10.5.4).

A ``ManifoldCharData`` record is checked once, when it is built: it must be
spin and have an integral e(S+), so the queries below are plain arithmetic.

The convention e(S-) = e(S+) - e(TW) is fixed here and repeated in every
emitted report.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CensusDataError, Frozen, TorsorError

NEGATIVE_CHIRALITY_CONVENTION = "e(S-) = e(S+) - e(TW)"

# The count 2**h8_z2_dim is printed in full.  2**14284 has 4300 digits and
# 2**14285 has 4301, one past CPython's default int-to-str limit
# (sys.get_int_max_str_digits()), so a larger h8_z2_dim has no printable count.
MAX_H8_Z2_DIM = 14284

# e(S+) and A-hat have numerators 4 p2 - p1^2 + 8 e and 7 p1^2 - 4 p2, at
# most 13 times the largest of |p1^2|, |p2|, |e|; below 10^4298 that stays
# under 1.3 * 10^4299, which prints within the 4300-digit int-to-str limit.
MAX_CHAR_NUMBER = 10**4298 - 1


class ManifoldCharData(Frozen):
    """Characteristic numbers and cohomological ranks of a compact spin 8-manifold.

    The catalogue reader takes its field names from ``REQUIRED_FIELDS`` and
    ``OPTIONAL_FIELDS``, the parameters of ``__init__`` without and with a
    default.
    """

    REQUIRED_FIELDS = ("name", "p1_sq", "p2", "euler", "h7_rel_rank", "h8_z2_dim")
    OPTIONAL_FIELDS = ("components", "simply_connected", "has_boundary", "spin")
    _fields = __slots__ = REQUIRED_FIELDS + OPTIONAL_FIELDS

    def __init__(
        self,
        name: str,
        p1_sq: int,
        p2: int,
        euler: int,
        h7_rel_rank: int,
        h8_z2_dim: int,
        components: int = 1,
        simply_connected: bool = False,
        has_boundary: bool = False,
        spin: bool = True,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "p1_sq", p1_sq)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "h7_rel_rank", h7_rel_rank)
        object.__setattr__(self, "h8_z2_dim", h8_z2_dim)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "simply_connected", simply_connected)
        object.__setattr__(self, "has_boundary", has_boundary)
        object.__setattr__(self, "spin", spin)
        # the name is printed inside a report line, so it may hold no line break
        if not isinstance(self.name, str) or not self.name.isprintable():
            raise CensusDataError(f"{self.name!r}: name must be a printable string")
        for key in ("p1_sq", "p2", "euler", "h7_rel_rank", "h8_z2_dim", "components"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise CensusDataError(f"{self.name}: {key} must be an integer, got {value!r}")
        for key in ("simply_connected", "has_boundary", "spin"):
            if not isinstance(getattr(self, key), bool):
                raise CensusDataError(f"{self.name}: {key} must be true or false")
        if not self.spin:
            raise CensusDataError(f"{self.name}: the census applies only to spin manifolds")
        if max(abs(self.p1_sq), abs(self.p2), abs(self.euler)) > MAX_CHAR_NUMBER:
            raise CensusDataError(
                f"{self.name}: |p1_sq|, |p2| and |euler| must be below 10^4298, "
                "past which e(S+) and A-hat do not print"
            )
        if self.components < 1:
            raise CensusDataError(f"{self.name}: components must be >= 1")
        if self.h7_rel_rank < 0 or self.h8_z2_dim < 0:
            raise CensusDataError(f"{self.name}: cohomological ranks must be >= 0")
        if self.h8_z2_dim > MAX_H8_Z2_DIM:
            raise CensusDataError(
                f"{self.name}: h8_z2_dim = {self.h8_z2_dim} is over {MAX_H8_Z2_DIM}, "
                "past which the count 2^h8_z2_dim does not print"
            )
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
        euler_positive_spinor(self)  # raises unless e(S+) is an integer


def euler_positive_spinor(d: ManifoldCharData) -> int:
    """e(S+) = (4 p2 - p1^2 + 8 e) / 16; raises CensusDataError naming the
    record when it is not an integer, so no valid record reaches the raise.

    The census reads existence off e(S+) for every record, with or without
    boundary; (4 p2 - p1^2 + 8 e)/16 + (p1^2 - 4 p2 + 8 e)/16 = e, so the
    rule is the same whichever half carries the spinor.
    """
    numerator = 4 * d.p2 - d.p1_sq + 8 * d.euler
    if numerator % 16:
        raise CensusDataError(f"{d.name}: e(S+) = {Fraction(numerator, 16)} is not an integer")
    return numerator // 16


def ahat_genus(d: ManifoldCharData) -> Fraction:
    """A-hat = (7 p1^2 - 4 p2) / 5760 (degree-8 term of the standard genus)."""
    return Fraction(7 * d.p1_sq - 4 * d.p2, 5760)


def holonomy_from_ahat(d: ManifoldCharData) -> str | None:
    """The holonomy label Spin(8 - A-hat) of a closed, simply connected W whose
    A-hat is an integer in 1..4; None when the criterion does not apply."""
    if d.has_boundary or not d.simply_connected:
        return None
    a = ahat_genus(d)
    return f"Spin({8 - int(a)})" if a.denominator == 1 and 1 <= a <= 4 else None


class CensusReport(Frozen):
    """Census outcome for one manifold record."""

    _fields = __slots__ = ("name", "e_s_plus", "e_s_minus", "count", "ahat", "holonomy_note")

    def __init__(
        self,
        name: str,
        e_s_plus: int,
        e_s_minus: int,
        count: int | str | None,
        ahat: Fraction,
        holonomy_note: str = "",
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "e_s_plus", e_s_plus)
        object.__setattr__(self, "e_s_minus", e_s_minus)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "ahat", ahat)
        object.__setattr__(self, "holonomy_note", holonomy_note)

    @property
    def exists(self) -> bool:
        return self.e_s_plus == 0


def _structure_count(d: ManifoldCharData, e_plus: int) -> int | str | None:
    """The count that census_report prints and torsor_size_cross_check
    checks, given e_plus = euler_positive_spinor(d)."""
    if e_plus != 0:
        return None
    if d.h7_rel_rank > 0:
        return "undetermined"
    return 2**d.h8_z2_dim


def census_report(d: ManifoldCharData) -> CensusReport:
    """Full per-manifold report with the structure count and a conditional
    holonomy note.

    The count is None when e(S+) != 0, as then no structure exists.
    Otherwise it is 2**h8_z2_dim when the relative degree-7 group vanishes
    (torsor over H^8(W, dW; Z/2)), and "undetermined" when it does not,
    since a nonzero primary difference escapes the counting argument.
    """
    e_plus = euler_positive_spinor(d)
    exists = e_plus == 0
    holonomy = holonomy_from_ahat(d) if exists else None
    note = f"holonomy {holonomy} if a torsion-free structure exists" if holonomy else ""
    return CensusReport(
        name=d.name,
        e_s_plus=e_plus,
        e_s_minus=e_plus - d.euler,
        count=_structure_count(d, e_plus),
        ahat=ahat_genus(d),
        holonomy_note=note,
    )


def torsor_size_cross_check(d: ManifoldCharData) -> bool:
    """Cross-check the census count against the torsor module on (Z/2)^h8_z2_dim.

    The cross-check is the certificate's size check, |carrier| = 2^h8_z2_dim.
    Raises when no Spin(7)-structure exists, as there is no count to check,
    and when 2^h8_z2_dim is over MAX_TORSOR_ORDER, past which the exhaustive
    table (4^h8_z2_dim entries) is not built.
    """
    # imported here, so that a census run that makes no cross-check loads no torsor
    from .torsor import MAX_TORSOR_ORDER, FiniteAbelianGroup, regular_difference_table, verify_difference_axioms

    expected = _structure_count(d, euler_positive_spinor(d))
    if expected is None:
        raise CensusDataError(f"{d.name}: no Spin(7)-structure exists (e(S+) != 0)")
    if not isinstance(expected, int):
        return True
    if expected > MAX_TORSOR_ORDER:
        raise CensusDataError(
            f"{d.name}: the cross-check's group (Z/2)^{d.h8_z2_dim} has order "
            f"2^{d.h8_z2_dim}, over the exhaustive torsor cap of {MAX_TORSOR_ORDER}"
        )
    group = FiniteAbelianGroup((2,) * d.h8_z2_dim)
    try:
        verify_difference_axioms(regular_difference_table(group))
    except TorsorError:
        return False
    return True
