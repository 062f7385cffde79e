"""spinkit: exact-arithmetic spin geometry and Spin(7)-structure counting.

Subpackages are deliberately small and layered:

* :mod:`spinkit.multivector` -- Clifford algebras Cl(0,n), n <= 8;
* :mod:`spinkit.spingroup`  -- Spin(n), rotations, and lifting;
* :mod:`spinkit.gammarep`   -- the 16-dimensional real Cl(0,8) module and
  the two Spin(7) embeddings in Spin(8);
* :mod:`spinkit.cwcomplex` / :mod:`spinkit.snf` -- relative cellular
  cochains and integer cohomology;
* :mod:`spinkit.torsor`    -- affine difference functions vs. free
  transitive actions, verified exhaustively on finite groups;
* :mod:`spinkit.census`    -- characteristic-class arithmetic deciding
  existence and counts of Spin(7)-structures on 8-manifolds;
* :mod:`spinkit.cli`       -- the `spinkit` command.

All algebraic identities are checked in exact rational arithmetic.
"""

from .multivector import (
    Multivector,
    chiral_projectors,
    p_iso,
    volume_element,
)
from .spingroup import (
    RotationMatrix,
    SkewMatrix,
    SpinElement,
    adjoint_action,
    lie_lift,
    lift_rotation,
    random_spin,
    reflect,
)

__all__ = [
    "Multivector",
    "p_iso",
    "volume_element",
    "chiral_projectors",
    "SpinElement",
    "RotationMatrix",
    "SkewMatrix",
    "adjoint_action",
    "reflect",
    "lift_rotation",
    "lie_lift",
    "random_spin",
]

__version__ = "0.1.0"
