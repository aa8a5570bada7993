"""Truncated Fock-space matrix representations and algebra verifiers.

At truncation dimension D the quadratic identities hold exactly on the
leading (D-1) x (D-1) sub-block (one ladder step from level D-2 stays inside
the space); the last row and column carry the truncation artifact and are
reported separately by every verifier.

Residuals are scaled per entry by the magnitude of the terms forming the
identity (floored at 1), so an exactly realized algebra reports machine-level
numbers regardless of how large phi(n) grows.  phi(100) already exceeds 1e9
for q = 0.9, where an unscaled residual could never beat phi * eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dsf import DeformationParams, FamilyId, _as_params, _check_level, phi_closed
from .errors import DomainError
from .families import GHPair, coefficients, gh_pair

__all__ = ["HBAR", "MAX_DIM", "FockRep", "ResidualReport", "build_rep",
           "verify_heisenberg", "verify_gh_relation", "verify_ladder"]

HBAR = 1.0  # fixed, not a parameter

MAX_DIM = 10_000  # dense-storage guard


@dataclass(frozen=True)
class FockRep:
    """Dense truncated matrices of a+, a-, N, X, P for one family."""

    family: FamilyId
    params: DeformationParams
    dim: int
    a_plus: np.ndarray
    a_minus: np.ndarray
    num: np.ndarray
    X: np.ndarray
    P: np.ndarray

    @property
    def trusted(self) -> int:
        """Size of the leading block on which quadratic identities are exact."""
        return self.dim - 1


@dataclass(frozen=True)
class ResidualReport:
    """Scaled max residual of one identity: trusted block and boundary band."""

    name: str
    residual: float
    boundary: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def build_rep(
    family: FamilyId | str,
    params: DeformationParams | float,
    dim: int,
    *,
    phi: Callable[[int], float] | None = None,
) -> FockRep:
    """Build the truncated representation of a+, a-, N, X, P.

    Parameters
    ----------
    family, params
        Built-in family and its (real, positive) deformation parameters.
    dim
        Truncation dimension D, 3 <= D <= 10**4.
    phi
        Optional structure-function override (used e.g. to inject a
        perturbation); defaults to the family's closed form.
    """
    family = FamilyId.parse(family)
    params = _as_params(params)
    _check_level(dim, "dim")
    if not 3 <= dim <= MAX_DIM:
        raise DomainError(f"dim must be in [3, {MAX_DIM}], got {dim}")
    if phi is None:
        phi = lambda n: phi_closed(family, params, n)  # noqa: E731

    phi_vals = np.empty(dim + 1)
    for n in range(dim + 1):
        value = phi(n)
        if value < 0:
            raise DomainError(f"phi({n}) = {value!r} < 0: ladder amplitudes undefined")
        phi_vals[n] = value

    roots = np.sqrt(phi_vals[1:dim])  # sqrt(phi(1)) .. sqrt(phi(D-1))
    a_plus = np.zeros((dim, dim), dtype=complex)
    a_plus[np.arange(1, dim), np.arange(dim - 1)] = roots
    a_minus = np.zeros((dim, dim), dtype=complex)
    a_minus[np.arange(dim - 1), np.arange(1, dim)] = roots
    num = np.diag(np.arange(dim)).astype(complex)

    cs = coefficients(family, params)
    levels = np.arange(dim)
    f_diag = np.array([cs.f(n) for n in levels])
    g_diag = np.array([cs.g(n) for n in levels])
    h_diag = np.array([cs.h(n) for n in levels])
    k_diag = np.array([cs.k(n) for n in levels])

    X = f_diag[:, None] * a_minus + g_diag[:, None] * a_plus
    P = 1j * (k_diag[:, None] * a_plus - h_diag[:, None] * a_minus)
    return FockRep(family=family, params=params, dim=dim,
                   a_plus=a_plus, a_minus=a_minus, num=num, X=X, P=P)


def _split_residual(matrix: np.ndarray, scale: np.ndarray, trusted: int) -> tuple[float, float]:
    scaled = np.abs(matrix) / np.maximum(scale, 1.0)
    inner = scaled[:trusted, :trusted].max()
    mask = np.zeros(matrix.shape, dtype=bool)
    mask[trusted:, :] = True
    mask[:, trusted:] = True
    boundary = scaled[mask].max()
    return float(inner), float(boundary)


def verify_heisenberg(rep: FockRep, tol: float = 1e-10) -> ResidualReport:
    """Scaled residual of p X P - q P X - i*hbar on the trusted block."""
    p_eff = rep.params.p if rep.params.two_parameter else 1.0
    q = rep.params.q
    eye = np.eye(rep.dim)
    R = p_eff * (rep.X @ rep.P) - q * (rep.P @ rep.X) - 1j * HBAR * eye
    absX, absP = np.abs(rep.X), np.abs(rep.P)
    scale = abs(p_eff) * (absX @ absP) + abs(q) * (absP @ absX) + eye
    residual, boundary = _split_residual(R, scale, rep.trusted)
    return ResidualReport("heisenberg", residual, boundary, tol)


def verify_gh_relation(rep: FockRep, gh: GHPair | None = None, tol: float = 1e-10) -> ResidualReport:
    """Scaled residual of H(N) a- a+ - G(N) a+ a- - 1 on the trusted block."""
    if gh is None:
        gh = gh_pair(rep.family, rep.params)
    levels = range(rep.dim)
    Hd = np.diag([gh.H(n) for n in levels])
    Gd = np.diag([gh.G(n) for n in levels])
    raise_then_lower = rep.a_minus @ rep.a_plus
    lower_then_raise = rep.a_plus @ rep.a_minus
    eye = np.eye(rep.dim)
    R = Hd @ raise_then_lower - Gd @ lower_then_raise - eye
    scale = np.abs(Hd) @ np.abs(raise_then_lower) + np.abs(Gd) @ np.abs(lower_then_raise) + eye
    residual, boundary = _split_residual(R, scale, rep.trusted)
    return ResidualReport("gh_relation", residual, boundary, tol)


def verify_ladder(rep: FockRep, tol: float = 1e-10) -> ResidualReport:
    """Residuals of [N, a+] = a+, [N, a-] = -a-, [a-, a+] = phi(N+1) - phi(N).

    The expected commutator diagonal is recomputed from the family's closed
    form, so representations built from a corrupted phi fail here too.
    """
    ap, am, num = rep.a_plus, rep.a_minus, rep.num
    abs_ap, abs_am, abs_num = np.abs(ap), np.abs(am), np.abs(num)
    phi_vals = [phi_closed(rep.family, rep.params, n) for n in range(rep.dim + 1)]
    steps = np.diag([phi_vals[n + 1] - phi_vals[n] for n in range(rep.dim)])
    step_scale = np.diag([abs(phi_vals[n + 1]) + abs(phi_vals[n]) for n in range(rep.dim)])
    checks = (
        (num @ ap - ap @ num - ap, abs_num @ abs_ap + abs_ap @ abs_num + abs_ap),
        (num @ am - am @ num + am, abs_num @ abs_am + abs_am @ abs_num + abs_am),
        (am @ ap - ap @ am - steps, abs_am @ abs_ap + abs_ap @ abs_am + step_scale),
    )
    residual = boundary = 0.0
    for R, scale in checks:
        inner, outer = _split_residual(R, scale, rep.trusted)
        residual = max(residual, inner)
        boundary = max(boundary, outer)
    return ResidualReport("ladder", residual, boundary, tol)
