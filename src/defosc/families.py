"""Coefficient functions f, g, h, k and operator functions H(N), G(N).

Each solution family fixes the quadruple (f, g, h, k) that realizes the
deformed Heisenberg relation through X = f(N) a- + g(N) a+ and
P = i (k(N) a+ - h(N) a-).  All eight built-in families are power laws in
the deformation base (q for A-D, Q = q/p for At-Dt) divided by sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .dsf import (
    _EXPONENTS, DeformationParams, FamilyId, _as_params, _check_family_params, _check_level,
    _prefix,
)
from .errors import DomainError

__all__ = [
    "CoefficientSet",
    "GHPair",
    "coefficients",
    "gh_pair",
    "general_gh",
    "verify_ratio_recursions",
    "ratio_kernel_constancy",
    "shift_power",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CoefficientSet:
    """The quadruple of operator-coefficient functions of one family."""

    f: Callable[[int], float]
    g: Callable[[int], float]
    h: Callable[[int], float]
    k: Callable[[int], float]


@dataclass(frozen=True)
class GHPair:
    """Operator functions of the relation H(N) a- a+ - G(N) a+ a- = 1.

    ``R`` is the ratio kernel R(N) = f(N-1) k(N) exposed by the general
    construction; it is None for the printed family pairs.
    """

    G: Callable[[int], float]
    H: Callable[[int], float]
    R: Callable[[int], float] | None = None


def shift_power(family: FamilyId | str) -> int:
    """Exponent s = 1 + e_f + e_k with G(N) = base**s * H(N-2) for the given family."""
    ef, ek = _EXPONENTS[FamilyId.parse(family).tag.letter]
    return 1 + ef + ek


def coefficients(family: FamilyId | str, params: DeformationParams | float) -> CoefficientSet:
    """Coefficient quadruple (f, g, h, k) of a built-in family.

    f(n) = x**(e_f n)/sqrt(2) and k(n) = x**(e_k n)/sqrt(2) from the family's
    exponent pair; g(n) = c0 x**n k(n) and h(n) = d0 x**n f(n) honor the
    family's c(0), d(0) constants, the printed solutions being c0 = d0 = 1.
    """
    family = FamilyId.parse(family)
    params = _as_params(params)
    _check_family_params(family, params, "coefficients")
    x = params.power_base
    ef, ek = _EXPONENTS[family.tag.letter]
    c0, d0 = family.c0, family.d0

    def f(n: int) -> float:
        return x ** (ef * n) / _SQRT2

    def g(n: int) -> float:
        return c0 * x ** ((ek + 1) * n) / _SQRT2

    def h(n: int) -> float:
        return d0 * x ** ((ef + 1) * n) / _SQRT2

    def k(n: int) -> float:
        return x ** (ek * n) / _SQRT2

    return CoefficientSet(f=f, g=g, h=h, k=k)


def gh_pair(family: FamilyId | str, params: DeformationParams | float) -> GHPair:
    """Operator functions H(N), G(N) of a built-in family in closed form.

    The general construction (:func:`general_gh`) applied to the family's
    power laws, with s = e_f + e_k and cd = c(0) d(0):

        G(N) = q x**(s N - e_f) (1 + cd x**(2N-2)) / 2,
        H(N) = pref x**(s N + e_k) (1 + cd x**(2N+2)) / 2,

    where x is q or Q = q/p and pref is 1 or p.
    """
    family = FamilyId.parse(family)
    params = _as_params(params)
    _check_family_params(family, params, "gh_pair")
    x, q = params.power_base, params.q
    pref = params.p if family.two_parameter else 1.0
    ef, ek = _EXPONENTS[family.tag.letter]
    s = ef + ek
    cd = family.c0 * family.d0

    def G(n: int) -> float:
        return 0.5 * q * x ** (s * n - ef) * (1.0 + cd * x ** (2 * n - 2))

    def H(n: int) -> float:
        return 0.5 * pref * x ** (s * n + ek) * (1.0 + cd * x ** (2 * n + 2))

    return GHPair(G=G, H=H)


def general_gh(
    f: Callable[[int], float],
    k: Callable[[int], float],
    c0: float,
    d0: float,
    params: DeformationParams | float,
) -> GHPair:
    """Operator functions for arbitrary f, k with ratio constants c(0), d(0).

    With g(n) = c0 x**n k(n) and h(n) = d0 x**n f(n) the defining relation
    collapses to

        G(N) = q R(N) (1 + c0 d0 x**(2N-2)),
        H(N) = pref * f(N) k(N+1) (1 + c0 d0 x**(2N+2)),

    where R(N) = f(N-1) k(N), x is the deformation base and pref is 1 (one
    parameter) or p (two parameters).  No constancy of R at q -> 1 is
    enforced; use :func:`ratio_kernel_constancy` to inspect it.
    """
    params = _as_params(params)
    params.require_real_positive("general_gh")
    x = params.power_base
    q = params.q
    pref = params.p if params.two_parameter else 1.0
    cd = c0 * d0

    def R(n: int) -> float:
        return f(n - 1) * k(n)

    def G(n: int) -> float:
        r = R(n)
        if r == 0:
            raise DomainError(f"general_gh: f({n - 1}) k({n}) = 0")
        return q * r * (1.0 + cd * x ** (2 * n - 2))

    def H(n: int) -> float:
        r = f(n) * k(n + 1)
        if r == 0:
            raise DomainError(f"general_gh: f({n}) k({n + 1}) = 0")
        return pref * r * (1.0 + cd * x ** (2 * n + 2))

    return GHPair(G=G, H=H, R=R)


def verify_ratio_recursions(
    cs: CoefficientSet,
    params: DeformationParams | float,
    n_max: int,
) -> float:
    """Largest residual of the coefficient ratio recursions up to n_max.

    Checks h(n+1)/h(n) = x f(n+1)/f(n) and k(n-1)/k(n) = x g(n-1)/g(n) with
    x = q (one parameter) or Q = q/p.  The residuals are formed on the ratios
    themselves, which stay O(x**2) regardless of n; cross-multiplied forms
    would drown in the dynamic range of the raw coefficients.  Raises
    DomainError naming the level where a coefficient or ratio leaves the
    double-precision range.
    """
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max}")
    _check_level(n_max, "n_max")  # after the bound, so a small int keeps that message
    params = _as_params(params)
    params.require_real_positive("verify_ratio_recursions")
    x = params.power_base
    # level n reads f, h at n and n + 1 and g, k at n - 1 and n; each table
    # stops before its first failing level, and the first level that would
    # read that entry is where the recursions leave the range
    f = _prefix(cs.f, range(0, n_max + 2))
    h = _prefix(cs.h, range(0, n_max + 2))
    g = _prefix(cs.g, range(-1, n_max + 1))
    k = _prefix(cs.k, range(-1, n_max + 1))
    stop = min(n_max + 1, len(f) - 1, len(h) - 1, len(g) - 1, len(k) - 1)
    worst, inf = 0.0, math.inf
    for n, f0, f1, h0, h1, g0, g1, k0, k1 in zip(
            range(stop), f, f[1:], h, h[1:], g, g[1:], k, k[1:]):
        try:
            total = abs(h1 / h0 - x * f1 / f0) + abs(k0 / k1 - x * g0 / g1)
        except ZeroDivisionError:
            total = inf
        if not total < inf:
            stop = n
            break
        if total > worst:
            worst = total
    if stop <= n_max:
        raise DomainError(f"ratio recursions leave the double-precision range at level {stop}")
    return worst


def ratio_kernel_constancy(
    f: Callable[[int], float],
    k: Callable[[int], float],
    n_max: int = 20,
) -> float:
    """Max |R(n+1) - R(1)| of the ratio kernel R(n) = f(n-1) k(n), n <= n_max.

    Diagnostic only: at q = 1 a consistent general solution needs R constant,
    but nothing is enforced here.
    """
    _check_level(n_max, "n_max")
    base = f(0) * k(1)
    return max(abs(f(n) * k(n + 1) - base) for n in range(0, n_max + 1))
