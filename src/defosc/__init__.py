"""Deformed Heisenberg algebras realized as deformed oscillators.

Evaluate deformation structure functions (closed form, reconstructed from
the operator functions G and H, or parameter-symmetrized), build truncated
Fock-space matrix representations that verify the defining relations, compute
energy spectra, and solve accidental-degeneracy equations for the deformation
parameter.
"""

from importlib import import_module as _import_module

from . import dsf, errors, families, spectra
from .dsf import *  # noqa: F403
from .errors import *  # noqa: F403
from .families import *  # noqa: F403
from .spectra import *  # noqa: F403

# `fock` and `symmetry` (the metrics) import numpy.  Their names, and the two
# submodules themselves, are resolved on first access, so that `import defosc`
# and the scalar path (dsf with the symmetrized forms, families, spectra) stay
# numpy-free.  A resolved name is stored as a plain module attribute: later
# reads cost nothing, and code that rebinds module attributes (tracers,
# monkeypatching) finds it.  This is the one hand-written name list: reading
# the two modules' `__all__` would load numpy.
_LAZY = {
    **dict.fromkeys(["HBAR", "MAX_DIM", "FockRep", "ResidualReport", "build_rep",
                     "verify_gh_relation", "verify_heisenberg", "verify_ladder"], "fock"),
    **dict.fromkeys(["MetricDiagonal", "find_metric", "hermiticity_defect"], "symmetry"),
}
_SUBMODULES = frozenset(_LAZY.values())


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule binds it on the package
        return _import_module(f".{name}", __name__)
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY) | _SUBMODULES)


__version__ = "0.1.0"

__all__ = sorted([*dsf.__all__, *errors.__all__, *families.__all__, *spectra.__all__, *_LAZY])
