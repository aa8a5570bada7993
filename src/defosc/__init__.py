"""Deformed Heisenberg algebras realized as deformed oscillators.

Evaluate deformation structure functions (closed form, reconstructed from
the operator functions G and H, or parameter-symmetrized), build truncated
Fock-space matrix representations that verify the defining relations, compute
energy spectra, and solve accidental-degeneracy equations for the deformation
parameter.
"""

from importlib import import_module as _import_module

from .dsf import (
    DeformationParams,
    FamilyId,
    FamilyTag,
    StructureFunction,
    bracket_pq,
    bracket_q,
    bracket_sym,
    phi_closed,
    phi_from_gh,
    phi_ratio_check,
)
from .errors import (
    DegenerateOperatorError,
    DomainError,
    MetricError,
    NoMetricError,
    PoleError,
    SingularRecipeError,
)
from .families import (
    CoefficientSet,
    GHPair,
    coefficients,
    general_gh,
    gh_pair,
    ratio_kernel_constancy,
    shift_power,
    verify_ratio_recursions,
)
from .spectra import (
    DegeneracyRoot,
    SpectrumReport,
    degeneracy_equation,
    energy,
    find_degeneracy,
    ground_state_table,
    spectrum,
)

# `fock` and `symmetry` import numpy.  Their names, and the two submodules
# themselves, are resolved on first access, so that `import defosc` and the
# scalar path (dsf, families, spectra) stay numpy-free.  A resolved name is
# stored as a plain module attribute: later reads cost nothing, and code that
# rebinds module attributes (tracers, monkeypatching) finds it.
_LAZY = {
    "HBAR": "fock",
    "FockRep": "fock",
    "ResidualReport": "fock",
    "build_rep": "fock",
    "verify_gh_relation": "fock",
    "verify_heisenberg": "fock",
    "verify_ladder": "fock",
    "MetricDiagonal": "symmetry",
    "SymmetrizedDSF": "symmetry",
    "find_metric": "symmetry",
    "hermiticity_defect": "symmetry",
    "phi_symmetrized": "symmetry",
    "phi_symmetrized_qp": "symmetry",
    "symmetrized_routes": "symmetry",
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

__all__ = [
    "HBAR",
    "CoefficientSet",
    "DeformationParams",
    "DegenerateOperatorError",
    "DegeneracyRoot",
    "DomainError",
    "FamilyId",
    "FamilyTag",
    "FockRep",
    "GHPair",
    "MetricDiagonal",
    "MetricError",
    "NoMetricError",
    "PoleError",
    "ResidualReport",
    "SingularRecipeError",
    "SpectrumReport",
    "StructureFunction",
    "SymmetrizedDSF",
    "bracket_pq",
    "bracket_q",
    "bracket_sym",
    "build_rep",
    "coefficients",
    "degeneracy_equation",
    "energy",
    "find_degeneracy",
    "find_metric",
    "general_gh",
    "gh_pair",
    "ground_state_table",
    "hermiticity_defect",
    "phi_closed",
    "phi_from_gh",
    "phi_ratio_check",
    "phi_symmetrized",
    "phi_symmetrized_qp",
    "ratio_kernel_constancy",
    "shift_power",
    "spectrum",
    "symmetrized_routes",
    "verify_gh_relation",
    "verify_heisenberg",
    "verify_ladder",
    "verify_ratio_recursions",
]
