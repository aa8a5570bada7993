"""Coefficient functions f, g, h, k and operator functions H(N), G(N).

Each solution family fixes the quadruple (f, g, h, k) that realizes the
deformed Heisenberg relation through X = f(N) a- + g(N) a+ and
P = i (k(N) a+ - h(N) a-).  All eight built-in families are power laws in
the deformation base (q for A-D, Q = q/p for At-Dt) divided by sqrt(2).
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Callable

from .dsf import (
    _EXPONENTS, DeformationParams, FamilyId, _as_params, _check_family_params, _check_level,
    _MIN_NORMAL, _Record, _show,
)
from .errors import DomainError

__all__ = [
    "CoefficientSet",
    "GHPair",
    "coefficients",
    "gh_pair",
    "general_gh",
    "verify_ratio_recursions",
]

_SQRT2 = math.sqrt(2.0)


class CoefficientSet(_Record):
    """The quadruple of operator-coefficient functions of one family."""

    __slots__ = ("f", "g", "h", "k")

    def __init__(self, f: Callable[[int], float], g: Callable[[int], float],
                 h: Callable[[int], float], k: Callable[[int], float]):
        self._init(f, g, h, k)


class GHPair(_Record):
    """Operator functions of the relation H(N) a- a+ - G(N) a+ a- = 1.

    ``R`` is the ratio kernel R(N) = f(N-1) k(N) exposed by the general
    construction; it is None for the printed family pairs.
    """

    __slots__ = ("G", "H", "R")

    def __init__(self, G: Callable[[int], float], H: Callable[[int], float],
                 R: Callable[[int], float] | None = None):
        self._init(G, H, R)


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
    return CoefficientSet(*[_power_law(c, x, *w) for c, w in _coefficient_terms(family)])


def gh_pair(family: FamilyId | str, params: DeformationParams | float) -> GHPair:
    """Operator functions H(N), G(N) of a built-in family in closed form.

    The general construction (:func:`general_gh`) applied to the family's
    power laws, with s = e_f + e_k and cd = c(0) d(0):

        G(N) = q x**(s N - e_f) (1 + cd x**(2N-2)) / 2,
        H(N) = pref x**(s N + e_k) (1 + cd x**(2N+2)) / 2,

    where x is q or Q = q/p and pref is 1 or p, from _operator_terms as fock's tables.
    """
    family = FamilyId.parse(family)
    params = _as_params(params)
    _check_family_params(family, params, "gh_pair")
    x = params.power_base
    H, G = [_operator(x, term) for term in _operator_terms(family, params)]
    return GHPair(G=G, H=H)


def _coefficient_terms(family: FamilyId) -> tuple[tuple[float, tuple[int, int]], ...]:
    """(c, w) of f, g, h and k for _law_value, the power w = x**(e n + d) as (e, d)."""
    ef, ek = _EXPONENTS[family.tag.letter]
    return (1.0, (ef, 0)), (family.c0, (ek + 1, 0)), (family.d0, (ef + 1, 0)), (1.0, (ek, 0))


def _operator_terms(family: FamilyId, params: DeformationParams) -> tuple[tuple, tuple]:
    """(c, lead, cd, y) of H, then G, for _operator_value, each power as (e, d) likewise."""
    (ef, ek), cd = _EXPONENTS[family.tag.letter], family.c0 * family.d0
    return (params.p or 1.0, (ef + ek, ek), cd, (2, 2)), (params.q, (ef + ek, -ef), cd, (2, -2))


def _power_law(c: float, x: float, e: int, d: int) -> Callable[[int], float]:
    """n -> c x**(e n + d)/sqrt(2): f, g, h or k of a built-in family."""
    return lambda n: _law_value(c, x ** (e * n + d))


def _law_value(c, w):
    """c w/sqrt(2) at w = x**(e n + d): a float w for _power_law, a numpy array for fock."""
    return c * w / _SQRT2


def _operator(x: float, term: tuple) -> Callable[[int], float]:
    """n -> c x**(s n + a) (1 + cd x**(t n + b)) / 2 for the term (c, (s, a), cd, (t, b)).

    Where the lead power x**(s n + a) is not a normal double but y = x**(t n + b) >= 1
    dominates the bracket, y is folded into it, 1 + cd y = y (cd + 1/y), so a
    value in range does not underflow on the way (B and Bt at a base above 1).
    The same fold serves where y alone overflows (C and D at a base above 1), if cd is
    a normal double: then cd + 1/y stays accurate though 1/y is subnormal.
    """
    c, (s, a), cd, (t, b) = term

    def operator(n: int) -> float:
        lead = x ** (s * n + a)
        if lead >= _MIN_NORMAL or (x < 1.0) == (t * n + b > 0):  # the latter: y <= 1
            try:
                return _operator_value(c, lead, cd, x ** (t * n + b))
            except OverflowError:  # y overflows, lead did not: the value may be in range
                if not abs(cd) >= _MIN_NORMAL:
                    raise
        return 0.5 * c * x ** ((s + t) * n + a + b) * (cd + x ** -(t * n + b))
    return operator


def _operator_value(c, lead, cd, y):
    """_operator's unfolded value at lead = x**(s n + a) and y = x**(t n + b), as _law_value."""
    return 0.5 * c * lead * (1.0 + cd * y)


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
    enforced.
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
    if isinstance(n_max, Real) and n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {_show(n_max)}")
    _check_level(n_max, "n_max")  # after the bound, so a small int keeps that message
    params = _as_params(params)
    params.require_real_positive("verify_ratio_recursions")
    x = params.power_base
    # level n reads f, h at n and n + 1 and g, k at n - 1 and n: one walk carries the
    # previous level's values, and the first level that reads a bad one is refused
    f, g, h, k = cs.f, cs.g, cs.h, cs.k
    worst, inf, n = 0.0, math.inf, 0
    try:
        f0, h0, g0, k0 = f(0), h(0), g(-1), k(-1)
        for n in range(n_max + 1):
            f1, h1, g1, k1 = f(n + 1), h(n + 1), g(n), k(n)
            total = abs(h1 / h0 - x * f1 / f0) + abs(k0 / k1 - x * g0 / g1)
            if not total < inf:
                break
            if total > worst:
                worst = total
            f0, h0, g0, k0 = f1, h1, g1, k1
        else:
            return worst
    except (OverflowError, ZeroDivisionError):
        pass
    raise DomainError(f"ratio recursions leave the double-precision range at level {n}")
