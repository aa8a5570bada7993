"""Symmetrized structure functions and pseudo-Hermiticity metrics.

The core families admit only real deformation parameters; averaging a
structure function with its parameter-inverted cousin produces a
(q <-> 1/q)-symmetric function that also accepts q on the unit circle.  For
the non-Hermitian position/momentum matrices a positive diagonal metric eta
with eta T eta^-1 = T^dagger is constructed entrywise.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .dsf import _EXPONENTS, DeformationParams, FamilyId, _phi_power_base
from .errors import DegenerateOperatorError, DomainError, NoMetricError
from .fock import FockRep

__all__ = [
    "SymmetrizedDSF",
    "MetricDiagonal",
    "phi_symmetrized",
    "phi_symmetrized_qp",
    "symmetrized_routes",
    "find_metric",
    "hermiticity_defect",
]

_UNIT_CIRCLE_TOL = 1e-12
_CROSS_CHECK_TOL = 1e-10


def _validate_sym_parameter(q) -> complex:
    if q == 0:
        raise DomainError("symmetrized forms require q != 0")
    if isinstance(q, complex) and q.imag != 0:
        if abs(abs(q) - 1.0) > _UNIT_CIRCLE_TOL:
            raise DomainError(
                f"complex q must lie on the unit circle, got |q| = {abs(q)!r}"
            )
        return q
    q = q.real if isinstance(q, complex) else q
    if not q > 0:
        raise DomainError(f"real q must be positive, got {q!r}")
    return complex(q)


def symmetrized_routes(base: FamilyId | str, q, n: int) -> tuple[complex, complex]:
    """Both evaluations of the symmetrized structure function, unreduced.

    Returns (average, factorized):

    * average     = (phi_q(n) + phi_{1/q}(n)) / 2 from the closed forms;
    * factorized  = (x**m + x**-m) (s**(n-1) + s**(1-n))
                    / ((x**n + x**-n)(x**(n-1) + x**(1-n))) * [[n]]_s

    with s = sqrt(x) (principal branch) and m = (1 + e_f + e_k) n - e_f from
    the family's exponent pair, which is 3n - 1 minus the family's ratio
    exponent relative to the first structure function.  The
    two expressions are algebraically equal; evaluating both is the internal
    consistency check used by :func:`phi_symmetrized`.
    """
    base = FamilyId.parse(base)
    if base.two_parameter:
        raise DomainError("unit-circle symmetrization applies to one-parameter families")
    x = _validate_sym_parameter(q)
    letter = base.tag.letter
    if n == 0:
        return 0j, 0j
    avg = 0.5 * (_phi_power_base(letter, x, n) + _phi_power_base(letter, 1.0 / x, n))
    if x == 1:
        return avg, complex(n)
    s = cmath.sqrt(x)
    ef, ek = _EXPONENTS[letter]
    m = (1 + ef + ek) * n - ef
    sym_bracket = (s**n - s**-n) / (s - 1.0 / s)
    fact = (
        (x**m + x**-m)
        * (s ** (n - 1) + s ** (1 - n))
        / ((x**n + x**-n) * (x ** (n - 1) + x ** (1 - n)))
        * sym_bracket
    )
    return avg, fact


def phi_symmetrized(base: FamilyId | str, q, n: int) -> float:
    """(q <-> 1/q)-symmetrized structure function, checked against both forms.

    Accepts real q > 0 or complex q on the unit circle.  The averaging and
    factorized evaluations must agree to 1e-10 and the imaginary part must be
    negligible at the same scale; both are enforced, then the real part is
    returned.
    """
    if n < 0:
        raise DomainError(f"level must be >= 0, got {n}")
    avg, fact = symmetrized_routes(base, q, n)
    scale = max(1.0, abs(avg), abs(fact))
    if abs(avg - fact) > _CROSS_CHECK_TOL * scale:
        raise ArithmeticError(
            f"symmetrized evaluations disagree at n = {n}: {avg!r} vs {fact!r}"
        )
    if abs(avg.imag) > _CROSS_CHECK_TOL * scale:
        raise ArithmeticError(
            f"symmetrized value has a stray imaginary part at n = {n}: {avg!r}"
        )
    return avg.real


def phi_symmetrized_qp(base: FamilyId | str, q, p, n: int):
    """(q <-> p)-symmetrized two-parameter structure function.

    Returns (phi_{q,p}(n) + phi_{p,q}(n)) / 2, which is exactly symmetric
    under swapping q and p.  Parameters may be real positive or complex with
    p = conj(q) = r e^{-i theta}; realness of the result for the conjugate
    choice is observable rather than assumed, so complex inputs return the
    complex value.
    """
    base = FamilyId.parse(base)
    if not base.two_parameter:
        raise DomainError("phi_symmetrized_qp applies to two-parameter families")
    if n < 0:
        raise DomainError(f"level must be >= 0, got {n}")
    if q == 0 or p == 0:
        raise DomainError("q and p must be nonzero")
    complex_input = (isinstance(q, complex) and q.imag != 0) or (
        isinstance(p, complex) and p.imag != 0
    )
    if not complex_input:
        q, p = float(q.real if isinstance(q, complex) else q), float(
            p.real if isinstance(p, complex) else p
        )
        if not (q > 0 and p > 0):
            raise DomainError("real parameters must be positive")
    letter = base.tag.letter
    forward = _phi_power_base(letter, q / p, n, p)
    swapped = _phi_power_base(letter, p / q, n, q)
    value = 0.5 * (forward + swapped)
    return value if complex_input else value.real if isinstance(value, complex) else value


@dataclass(frozen=True)
class SymmetrizedDSF:
    """Evaluatable symmetrized structure function for one base family."""

    base_family: FamilyId
    params: DeformationParams

    def __post_init__(self):
        base = FamilyId.parse(self.base_family)
        object.__setattr__(self, "base_family", base)
        if base.two_parameter != self.params.two_parameter:
            raise DomainError("base family arity must match the parameter set")

    def __call__(self, n: int):
        if self.params.two_parameter:
            return phi_symmetrized_qp(self.base_family, self.params.q, self.params.p, n)
        return phi_symmetrized(self.base_family, self.params.q, n)


# ---------------------------------------------------------------------------
# pseudo-Hermiticity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricDiagonal:
    """Positive diagonal metric eta(0..D-1), normalized eta(0) = 1."""

    eta: np.ndarray
    residual: float


def _target_matrix(rep: FockRep, target: str) -> np.ndarray:
    name = str(target).strip().upper()
    if name == "X":
        return rep.X
    if name == "P":
        return rep.P
    raise DomainError(f"target must be 'X' or 'P', got {target!r}")


def hermiticity_defect(rep: FockRep, target: str) -> float:
    """Max-norm of T - T^dagger on the trusted block; zero iff T is Hermitian there."""
    T = _target_matrix(rep, target)
    t = rep.trusted
    block = T[:t, :t]
    return float(np.abs(block - block.conj().T).max())


def find_metric(rep: FockRep, target: str = "X", tol: float = 1e-10) -> MetricDiagonal:
    """Positive diagonal eta with eta T eta^-1 = T^dagger on the trusted block.

    For tridiagonal T the relation fixes eta up to scale through
    eta(n+1)/eta(n) = conj(T[n,n+1]) / T[n+1,n]; the same ratio obtained from
    the transposed entry must agree, the ratio must be real and positive, and
    the assembled eta must satisfy the full relation to `tol`.  eta(0) = 1.
    """
    rep.params.require_real_positive("find_metric")
    T = _target_matrix(rep, target)
    dim = rep.dim
    eta = np.empty(dim)
    eta[0] = level = 1.0
    worst_gap, worst_idx = 0.0, 0
    for n in range(dim - 1):
        sub, sup = complex(T[n + 1, n]), complex(T[n, n + 1])
        if sub == 0 or sup == 0:
            raise DegenerateOperatorError(
                f"{target} has a vanishing off-diagonal entry at level {n}"
            )
        if sup.conjugate() == sub:  # entry pair already Hermitian: ratio exactly 1
            eta[n + 1] = level
            continue
        r_up = sup.conjugate() / sub
        r_down = sup / sub.conjugate()
        gap = abs(r_up - r_down)
        if gap > worst_gap:
            worst_gap, worst_idx = gap, n
        if gap > tol * max(1.0, abs(r_up)):
            raise NoMetricError("entrywise metric conditions are inconsistent", worst_idx)
        if abs(r_up.imag) > tol * max(1.0, abs(r_up)) or r_up.real <= 0:
            raise NoMetricError(f"metric ratio at level {n} is not positive: {r_up!r}", n)
        level *= r_up.real
        if not 0.0 < level < float("inf"):
            raise NoMetricError("metric entries left the double-precision range", n + 1)
        eta[n + 1] = level

    t = rep.trusted
    with np.errstate(over="ignore", invalid="ignore"):
        similar = (eta[:, None] * T) / eta[None, :]
        gap = np.abs(similar - T.conj().T)[:t, :t]
    residual = float(gap.max())
    if not residual <= tol:
        raise NoMetricError("assembled metric fails the similarity relation", int(gap.argmax()))
    return MetricDiagonal(eta=eta, residual=residual)
