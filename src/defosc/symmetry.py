"""Pseudo-Hermiticity metrics of the truncated position and momentum operators.

For the non-Hermitian X or P a positive diagonal metric eta with eta T eta^-1 =
T^dagger is constructed entrywise (the symmetrized phi are in :mod:`defosc.dsf`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsf import _check_tol, _show
from .errors import DegenerateOperatorError, DomainError, NoMetricError
from .fock import FockRep

__all__ = ["MetricDiagonal", "find_metric", "hermiticity_defect"]


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
