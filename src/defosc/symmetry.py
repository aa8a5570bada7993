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

from .dsf import (
    _EXPONENTS, DeformationParams, FamilyId, _check_level, _check_tol, _phi_power_base,
    _require_nonzero, _require_positive, _show, bracket_sym,
)
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
    if isinstance(q, complex) and q.imag != 0:
        _require_nonzero(q, "q", "phi_symmetrized")
        if abs(abs(q) - 1.0) > _UNIT_CIRCLE_TOL:
            raise DomainError(f"complex q must lie on the unit circle, got |q| = {abs(q)!r}")
        return q
    _require_positive(q.real if isinstance(q, complex) else q, "q", "phi_symmetrized")  # 1+0j too
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
    _check_level(n)
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
    try:
        fact = (
            (x**m + x**-m)
            * (s ** (n - 1) + s ** (1 - n))
            / ((x**n + x**-n) * (x ** (n - 1) + x ** (1 - n)))
            * bracket_sym(n, s)
        )
    except OverflowError:
        raise DomainError(
            f"factorized symmetrized phi({_show(n)}) leaves the double-precision range at q = {_show(q)}"
        ) from None
    return avg, fact


def phi_symmetrized(base: FamilyId | str, q, n: int) -> float:
    """(q <-> 1/q)-symmetrized structure function, checked against both forms.

    Accepts real q > 0 or complex q on the unit circle.  The averaging and
    factorized evaluations must agree to 1e-10 and the imaginary part must be
    negligible at the same scale; either failure raises DomainError naming n,
    else the real part is returned.
    """
    avg, fact = symmetrized_routes(base, q, n)
    scale = max(1.0, abs(avg), abs(fact))
    if abs(avg - fact) > _CROSS_CHECK_TOL * scale:
        raise DomainError(f"symmetrized evaluations disagree at n = {_show(n)}: {avg!r} vs {fact!r}")
    if abs(avg.imag) > _CROSS_CHECK_TOL * scale:
        raise DomainError(f"symmetrized value has a stray imaginary part at n = {_show(n)}: {avg!r}")
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
    _check_level(n)
    if isinstance(q, complex) and q.imag != 0 or isinstance(p, complex) and p.imag != 0:
        _require_nonzero(q, "q", "phi_symmetrized_qp")
        _require_nonzero(p, "p", "phi_symmetrized_qp")
    else:  # a zero imaginary part counts as real
        q, p = [v.real if isinstance(v, complex) else v for v in (q, p)]
        _require_positive(q, "q", "phi_symmetrized_qp")
        _require_positive(p, "p", "phi_symmetrized_qp")
        q, p = float(q), float(p)
    for name, ratio in (("q/p", q / p), ("p/q", p / q)):
        _require_nonzero(ratio, name, "phi_symmetrized_qp")
    letter = base.tag.letter  # real parameters give a float: every base below is real
    return 0.5 * (_phi_power_base(letter, q / p, n, p) + _phi_power_base(letter, p / q, n, q))


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


def _target_bands(rep: FockRep, target: str) -> tuple[np.ndarray, np.ndarray]:
    """Sub- and super-diagonal of X or P: T[n+1, n] and T[n, n+1], n = 0..D-2."""
    name = target.strip().upper() if isinstance(target, str) else target
    if name == "X":
        return rep.x_sub, rep.x_sup
    if name == "P":
        return rep.p_sub, rep.p_sup
    raise DomainError(f"target must be 'X' or 'P', got {_show(target)}")


def hermiticity_defect(rep: FockRep, target: str) -> float:
    """Max-norm of T - T^dagger on the trusted block; zero iff T is Hermitian there.

    Entry (n+1, n) of T - T^dagger is sub[n] - conj(sup[n]) and entry
    (n, n+1) has the same modulus; the zero diagonal contributes 0.
    """
    sub, sup = _target_bands(rep, target)
    links = rep.trusted - 1  # links n -> n+1 inside the trusted block
    return float(np.abs(sub[:links] - sup[:links].conj()).max())


def find_metric(rep: FockRep, target: str = "X", tol: float = 1e-10) -> MetricDiagonal:
    """Positive diagonal eta with eta T eta^-1 = T^dagger on the trusted block.

    For tridiagonal T the relation fixes eta up to scale through
    eta(n+1)/eta(n) = r = conj(T[n,n+1]) / T[n+1,n].  The same ratio obtained
    from the transposed entry, T[n,n+1] / conj(T[n+1,n]), is conj(r) bit for
    bit, so each link forms r once: their gap 2 |Im r| must not exceed
    tol max(1, |r|), and Re r must be positive.  The assembled eta must satisfy
    the full relation to `tol`.  eta(0) = 1.
    """
    _check_tol(tol)
    rep.params.require_real_positive("find_metric")
    sub_band, sup_band = _target_bands(rep, target)
    eta = np.empty(rep.dim)
    eta[0] = level = 1.0
    for n, (sub, sup) in enumerate(zip(sub_band.tolist(), sup_band.tolist())):
        if sub == 0 or sup == 0:
            raise DegenerateOperatorError(
                f"{target} has a vanishing off-diagonal entry at level {n}"
            )
        if sup.conjugate() != sub:  # else the entry pair is Hermitian: ratio exactly 1
            r = sup.conjugate() / sub
            if 2.0 * abs(r.imag) > tol * max(1.0, abs(r)) or r.real <= 0:
                raise NoMetricError(f"metric ratio at level {n} is not real and positive: {r!r}", n)
            level *= r.real
            if not 0.0 < level < float("inf"):
                raise NoMetricError("metric entries left the double-precision range", n + 1)
        eta[n + 1] = level

    # the similarity relation on the trusted block, link by link: entries
    # (n+1, n) and (n, n+1) of eta T eta^-1 against those of T^dagger
    links = rep.trusted - 1
    sub, sup = sub_band[:links], sup_band[:links]
    lower, upper = eta[:links], eta[1:links + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.maximum(np.abs((upper * sub) / lower - sup.conj()),
                         np.abs((lower * sup) / upper - sub.conj()))
    residual = float(gap.max())
    if not residual <= tol:
        raise NoMetricError("assembled metric fails the similarity relation", int(gap.argmax()))
    return MetricDiagonal(eta=eta, residual=residual)
