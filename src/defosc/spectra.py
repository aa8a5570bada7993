"""Energy spectra and accidental-degeneracy parameter solving.

The Hamiltonian (a a+ + a+ a)/2 has eigenvalues E(n) = (phi(n+1) + phi(n))/2
in units hbar*omega = 1.  Accidental level coincidences E_q(n) = E_q(m) are
located by a sign-change scan plus bisection in q.
"""

from __future__ import annotations

from numbers import Real

from .dsf import (
    _EXPONENTS, DeformationParams, FamilyId, _as_params, _check_family_params, _check_level,
    _check_tol, _energy_at, _in_range, _INF, _MAX_FLOAT, _Record, _show, phi_closed,
)
from .errors import DomainError

__all__ = [
    "GUARD_BAND",
    "SpectrumReport",
    "DegeneracyRoot",
    "energy",
    "spectrum",
    "ground_state_table",
    "degeneracy_equation",
    "find_degeneracy",
]

#: half-width of the q = 1 neighborhood excluded from degeneracy scans;
#: there E(n) - E(m) = n - m != 0, so no roots can hide inside.
GUARD_BAND = 1e-4


class SpectrumReport(_Record):
    """Energy table of one family: list of (n, E(n)) pairs."""

    __slots__ = ("family", "params", "energies")

    def __init__(self, family: FamilyId, params: DeformationParams, energies: tuple):
        self._init(family, params, energies)


class DegeneracyRoot(_Record):
    """A solved parameter value q* with E(n) = E(m), plus solver evidence."""

    __slots__ = ("n", "m", "q_star", "residual", "bracket")

    def __init__(self, n: int, m: int, q_star: float, residual: float, bracket: tuple[float, float]):
        self._init(n, m, q_star, residual, bracket)


def energy(family: FamilyId | str, params: DeformationParams | float, n: int) -> float:
    """E(n) = (phi(n+1) + phi(n))/2 for the given family."""
    phi_n = phi_closed(family, params, n)  # first, so a bad level is refused as given
    return 0.5 * (phi_closed(family, params, n + 1) + phi_n)


def spectrum(family: FamilyId | str, params: DeformationParams | float, n_max: int) -> SpectrumReport:
    """Energies E(0..n_max) collected into a report."""
    family = FamilyId.parse(family)
    params = _as_params(params)
    n_max = _check_level(n_max, "n_max")
    rows = tuple((n, energy(family, params, n)) for n in range(n_max + 1))
    return SpectrumReport(family=family, params=params, energies=rows)


def ground_state_table(params: DeformationParams | float) -> tuple[float, float, float, float]:
    """Ground-state energies (E1(0), E2(0), E3(0), E4(0)) of the four families.

    E(0) = phi(1)/2 = q**-e_k/(1 + q**2) from each family's exponent pair, so
    E1 = E3 = q**-1/(1 + q**2) and E2 = E4 = q**2/(1 + q**2); above/below the
    undeformed 1/2 depending on the side of q = 1.  Only the one-parameter
    families have these printed values.  Raises DomainError naming the call
    when a value leaves the double-precision range.
    """
    params = _as_params(params)
    if params.two_parameter:
        raise DomainError("ground_state_table covers the one-parameter families only")
    params.require_real_positive("ground_state_table")
    q = params.q
    return tuple(_in_range("ground_state_table", (q,), lambda: q**-ek / (1.0 + q**2))
                 for _, ek in _EXPONENTS.values())


def degeneracy_equation(family: FamilyId | str, q: float, n: int, m: int) -> float:
    """E_q(n) - E_q(m); its zeros in q are the accidental degeneracies.

    (family, q) is checked once, as phi_closed checks it; each energy is then
    one call of the dsf kernel _energy_at, so the result equals
    ``energy(family, q, n) - energy(family, q, m)`` bit for bit, and every
    refusal keeps energy's message and order: n == m, level n, family and q,
    phi(n) or phi(n + 1) out of range, level m.
    """
    if n == m:
        raise DomainError("degeneracy requires two distinct levels")
    family = FamilyId.parse(family)
    n = _check_level(n)
    # a finite positive float q of a printed one-parameter family passes every
    # check; anything else takes phi_closed's checks in full (this test is the
    # one-parameter twin of phi_closed's accept test, for a bare q)
    if not (type(q) is float and 0 < q < _INF) or family.two_parameter \
            or (family.c0, family.d0) != (1.0, 1.0):
        params = DeformationParams(q=q)
        _check_family_params(family, params, "phi_closed", printed=True)
        q = params.q  # a real q as the float it holds
    letter = family.tag.letter
    e_n = _energy_at(letter, q, n)
    m = _check_level(m)
    return e_n - _energy_at(letter, q, m)


def _bisect(f, lo: float, hi: float, f_lo: float, tol: float) -> tuple[float, tuple[float, float]]:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent doubles: tol is below their spacing
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            half = 0.5 * tol
            return mid, (mid - half, mid + half)
        if (f_lo < 0) != (f_mid < 0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi), (lo, hi)


def find_degeneracy(
    family: FamilyId | str,
    n: int,
    m: int,
    search: tuple[float, float],
    tol: float = 1e-7,
    *,
    grid: int = 400,
) -> list[DegeneracyRoot]:
    """All roots of E_q(n) = E_q(m) inside the search interval.

    The interval (clipped away from the q = 1 guard band) is scanned on a
    uniform grid of `grid` points; each sign change is bisected down to a
    bracket of width <= tol, or to two adjacent doubles when tol is below
    their spacing.  No sign change means an empty list, not an
    error.  Roots are returned in ascending order of q*.

    Every evaluation is one call of :func:`degeneracy_equation`: `grid` per
    segment, plus ceil(log2(scan step / tol)) bisection steps (fewer if a
    midpoint hits 0 exactly or the bracket reaches adjacent doubles) and one
    residual evaluation per bisected root.
    The three acceptance searches of level 10, 90 and 30 against level 0 take
    412, 413 and 415.

    Parameters
    ----------
    n, m
        The two levels, nonnegative integers.
    search
        (q_lo, q_hi) with 0 < q_lo < q_hi < inf and neither endpoint equal to 1.
    tol
        Final bracket width in q; must be positive.
    grid
        Number of scan points per segment, an integer >= 2.
    """
    family = FamilyId.parse(family)
    try:
        q_lo, q_hi = search
    except (TypeError, ValueError):  # not iterable, or not two items
        raise DomainError(f"search must be a pair (q_lo, q_hi), got {_show(search)}") from None
    if not (isinstance(q_lo, Real) and isinstance(q_hi, Real)):
        raise DomainError(f"search endpoints must be real, got {_show(search)}")
    if not (0 < q_lo < q_hi):
        raise DomainError(f"search interval must satisfy 0 < q_lo < q_hi, got {_show(search)}")
    if q_lo == 1.0 or q_hi == 1.0:
        raise DomainError("search endpoints must differ from the undeformed point q = 1")
    if q_hi > _MAX_FLOAT:  # inf, or an int beyond the double range
        raise DomainError(f"search endpoints must be finite, got {_show(search)}")
    _check_tol(tol)
    if isinstance(grid, Real) and grid < 2:
        raise DomainError(f"grid must have at least 2 points, got {_show(grid)}")
    _check_level(grid, "grid")  # after the bound, so a small int keeps that message
    _check_level(n)
    _check_level(m)

    def f(q: float) -> float:
        return degeneracy_equation(family, q, n, m)

    # clip out the guard band around q = 1
    segments = []
    for lo, hi in ((q_lo, min(q_hi, 1.0 - GUARD_BAND)), (max(q_lo, 1.0 + GUARD_BAND), q_hi)):
        if lo < hi:
            segments.append((lo, hi))
    if not segments:
        return []

    roots: list[DegeneracyRoot] = []
    for lo, hi in segments:
        step = (hi - lo) / (grid - 1)
        qs = [lo + i * step for i in range(grid - 1)] + [hi]
        values = [f(q) for q in qs]
        # the last point has no right neighbour: pad with a 0.0, which is never bisected
        for q, value, q_next, next_value in zip(qs, values, qs[1:] + [hi], values[1:] + [0.0]):
            if value == 0.0:
                half = 0.5 * tol
                roots.append(DegeneracyRoot(n, m, q, 0.0, (q - half, q + half)))
            elif (value < 0) != (next_value < 0) and next_value != 0.0:
                q_star, bracket = _bisect(f, q, q_next, value, tol)
                roots.append(DegeneracyRoot(n, m, q_star, abs(f(q_star)), bracket))
    roots.sort(key=lambda r: r.q_star)
    return roots
