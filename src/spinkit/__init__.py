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

The names in ``__all__`` are re-exported from :mod:`spinkit.multivector` and
:mod:`spinkit.spingroup`; each resolves on first use, so importing the
package loads none of its submodules.
"""

from importlib import import_module

# Each re-exported name and the submodule that defines it; the module
# __getattr__ (PEP 562) imports that submodule on first access.
_EXPORTS = {
    "Multivector": "multivector",
    "p_iso": "multivector",
    "volume_element": "multivector",
    "chiral_projectors": "multivector",
    "SpinElement": "spingroup",
    "RotationMatrix": "spingroup",
    "SkewMatrix": "spingroup",
    "adjoint_action": "spingroup",
    "reflect": "spingroup",
    "lift_rotation": "spingroup",
    "lie_lift": "spingroup",
    "random_spin": "spingroup",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
