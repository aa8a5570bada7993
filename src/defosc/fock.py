"""Truncated Fock-space representations and algebra verifiers.

Storage: a+ and a- are single off-diagonals, and X and P are tridiagonal
with a zero diagonal, so a :class:`FockRep` keeps O(D) level vectors: the
ladder amplitudes sqrt(phi(1..D-1)) and the sub- and super-diagonals of X
and P.  The dense D x D matrices are read-only properties built on request
in O(D^2); no library code reads them.

Tables: every family is a power law in one base x, and `dsf` and `families`
state each law once: the (e, d) of its powers x**(e n + d) in dsf._PHI_POWERS,
families._coefficient_terms and _operator_terms, and its value line on + - * /
in dsf._phi_value, families._law_value and _operator_value, which the scalar
functions call too.  build_rep and verify_gh_relation slice those powers from
one vector of x**m per call and apply the value lines, so each value is the
scalar function's bit for bit.  A level whose lead
power is not a normal double or whose value is not finite comes from the
scalar function itself (dsf._phi_at, the coefficients and gh_pair closures),
which also names the first level that leaves the double range.  Only a
``phi=`` override and a ``gh`` pair are read level by level.  When build_rep
evaluates phi itself, the rep keeps it and verify_ladder reuses it; a rep
built with a ``phi=`` override, built by hand or copied with
``dataclasses.replace`` has none, and verify_ladder recomputes it with dsf's
one validated table.  build_rep reads each coefficient only at the levels the
bands use: f and h at 0..D-2, g and k at 1..D-1.

Diagonal rule: each verifier forms only the diagonals its identity has,
straight from the stored vectors at their natural length, in the order
``np.diag(M, k)`` reads them.  Entry (r, r) of A @ B is
A[r, r-1] B[r-1, r] + A[r, r+1] B[r+1, r], with the factors and the sum in
that order, so every product, absolute value and scale of the dense formulas
is formed diagonal by diagonal in O(D) without padded copies.  Every entry
off those diagonals is exactly 0 in the dense products too, so the maxima are
the same.

At truncation dimension D the quadratic identities hold exactly on the
leading (D-1) x (D-1) sub-block (one ladder step from level D-2 stays inside
the space); the last row and column carry the truncation artifact and are
reported separately by every verifier.  On every diagonal the last entry is
the one in the last row or column, so it is the boundary and the others are
trusted.

Residuals are scaled per entry by the magnitude of the terms forming the
identity (floored at 1), so an exactly realized algebra reports machine-level
numbers regardless of how large phi(n) grows.  phi(100) already exceeds 1e9
for q = 0.9, where an unscaled residual could never beat phi * eps.  A product
that overflows leaves an inf or NaN residual in the report, with no numpy warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import families
from .dsf import (
    _MIN_NORMAL, _PHI_POWERS, DeformationParams, FamilyId, _as_params, _check_family_params,
    _check_level, _check_tol, _levels, _phi_at, _phi_table, _phi_value, _show,
)
from .errors import DomainError

__all__ = ["HBAR", "MAX_DIM", "FockRep", "ResidualReport", "build_rep",
           "verify_heisenberg", "verify_gh_relation", "verify_ladder"]

HBAR = 1.0  # fixed, not a parameter

# Bounds the O(D) verifier work and the dense properties (16 D^2 bytes each);
# the stored representation itself is O(D).
MAX_DIM = 10_000


@dataclass(frozen=True)
class FockRep:
    """Truncated a+, a-, N, X, P of one family, stored as level vectors.

    For n = 0 .. D-2: ``ladder[n]`` = sqrt(phi(n+1)) = a+[n+1, n] = a-[n, n+1];
    ``x_sub[n]`` = X[n+1, n] and ``x_sup[n]`` = X[n, n+1]; ``p_sub`` and
    ``p_sup`` likewise for P.  The properties ``a_plus``, ``a_minus``,
    ``num``, ``X`` and ``P`` build fresh dense matrices in O(D^2).
    """

    family: FamilyId
    params: DeformationParams
    dim: int
    ladder: np.ndarray
    x_sub: np.ndarray
    x_sup: np.ndarray
    p_sub: np.ndarray
    p_sup: np.ndarray
    # closed-form phi(0..D) kept by build_rep for verify_ladder; outside
    # __init__, so a dataclasses.replace copy starts without it
    _phi: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def trusted(self) -> int:
        """Size of the leading block on which quadratic identities are exact."""
        return self.dim - 1

    @property
    def a_plus(self) -> np.ndarray:
        return _matrix(self.dim, (-1, self.ladder))

    @property
    def a_minus(self) -> np.ndarray:
        return _matrix(self.dim, (1, self.ladder))

    @property
    def num(self) -> np.ndarray:
        return np.diag(np.arange(self.dim)).astype(complex)

    @property
    def X(self) -> np.ndarray:
        return _matrix(self.dim, (-1, self.x_sub), (1, self.x_sup))

    @property
    def P(self) -> np.ndarray:
        return _matrix(self.dim, (-1, self.p_sub), (1, self.p_sup))


def _matrix(dim: int, *diagonals: tuple[int, np.ndarray]) -> np.ndarray:
    """Dense complex D x D matrix with the given (offset, diagonal) pairs."""
    return sum((np.diag(diagonal, offset) for offset, diagonal in diagonals),
               np.zeros((dim, dim), dtype=complex))


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

    phi(0..D) and f, g, h, k are dsf's and families' laws on one power vector
    (see the module docstring).  Raises DomainError naming the level where phi
    is negative, or where phi, a coefficient f, g, h, k or a band entry such as
    x_sub[n] = g(n+1) sqrt(phi(n+1)) leaves the double-precision range.
    """
    family = FamilyId.parse(family)
    params = _as_params(params)
    dim = _check_level(dim, "dim")
    if not 3 <= dim <= MAX_DIM:
        raise DomainError(f"dim must be in [3, {MAX_DIM}], got {_show(dim)}")
    if phi is None:
        _check_family_params(family, params, "phi_closed", printed=True)
    else:
        phi_vals = np.array(_levels(phi, "phi", range(dim + 1)), dtype=float)
        negative = np.flatnonzero(phi_vals < 0)
        if negative.size:
            n = int(negative[0])
            raise DomainError(f"phi({n}) = {float(phi_vals[n])!r} < 0: ladder amplitudes undefined")
    cs = families.coefficients(family, params)
    # X = f(N) a- + g(N) a+ and P = i (k(N) a+ - h(N) a-), row by row: the
    # super-diagonals read f and h at 0..D-2, the sub-diagonals g and k at 1..D-1
    lower, upper, table = range(dim - 1), range(1, dim), range(1, dim + 1)
    laws = list(zip(families._coefficient_terms(family), (cs.f, cs.g, cs.h, cs.k), "fghk",
                    (lower, upper, lower, upper)))
    x, letter, p = params.power_base, family.tag.letter, params.p or 1.0
    # the powers of f, g, h, k, then, without an override, the five of phi(1..D)
    progressions = [(*w, levels) for (_, w), _, _, levels in laws]
    if phi is None:
        progressions += [(*w, table) for w in _PHI_POWERS[letter]]
    powers = _power_slices(x, progressions)
    # an overflowed power is inf and its level falls back; an overflowed band entry is refused
    with np.errstate(all="ignore"):
        if phi is None:  # phi(0) = 0; _phi_power_base rescales a value below the normal range
            value = _phi_value(x, float(p), *powers[4:])  # powers[4] is the lead power
            phi_vals = np.concatenate(([0.0], _settled(value, np.minimum(powers[4], value),
                                                       lambda n: _phi_at(letter, x, n, p),
                                                       "phi", table)))
        f, g, h, k = [_settled(families._law_value(c, w), w, fn, name, levels)
                      for w, ((c, _), fn, name, levels) in zip(powers, laws)]
        roots = np.sqrt(phi_vals[1:dim])  # sqrt(phi(1)) .. sqrt(phi(D-1))
        x_sup, x_sub, p_sup, p_sub = bands = np.array((f, g, h, k)) * roots
        # one sum tests every entry; only if it is not finite are they walked (it may overflow)
        if not math.isfinite(np.add.reduce(bands, axis=None)) and not np.isfinite(bands).all():
            row, i = np.argwhere(~np.isfinite(bands))[0].tolist()  # the first band, then entry
            (_, _, law, levels), band = laws[row], ("x_sup", "x_sub", "p_sup", "p_sub")[row]
            raise DomainError(f"{band}[{i}] = {law}({levels[i]}) sqrt(phi({i + 1})) "
                              "leaves the double-precision range")
    rep = FockRep(family=family, params=params, dim=dim, ladder=roots,
                  x_sub=x_sub.astype(complex), x_sup=x_sup.astype(complex),
                  p_sub=1j * p_sub, p_sup=-1j * p_sup)
    if phi is None:
        object.__setattr__(rep, "_phi", phi_vals)  # frozen dataclass
    return rep


def _power_slices(x: float, progressions: list[tuple[int, int, range]]) -> list[np.ndarray]:
    """x**(e n + d) over each (e, d, levels): strided views of one vector of Python's x**m
    (np.power's bits differ), m in steps of the gcd of the progressions' strides and offsets."""
    ends = [e * n + d for e, d, levels in progressions for n in (levels[0], levels[-1])]
    lo = min(ends)
    step = math.gcd(*(v for e, d, levels in progressions for v in (e, e * levels[0] + d - lo)))
    exponents = range(lo, max(ends) + 1, step)
    try:
        powers = np.fromiter((x ** m for m in exponents), float, len(exponents))
    except OverflowError:  # inf from 2**1023 on, so x**m never overflows: those levels fall back
        log2_x = math.log2(x)
        powers = np.fromiter((x ** m if m * log2_x < 1023 else np.inf for m in exponents),
                             float, len(exponents))
    return [powers[(e * levels[0] + d - lo) // step::e // step][:len(levels)]
            for e, d, levels in progressions]


def _settled(values: np.ndarray, lead: np.ndarray, fn: Callable[[int], float], stage: str,
             levels: range) -> np.ndarray:
    """values, but fn's where the lead power is not normal or the value not finite: elsewhere
    the two agree bit for bit, so _levels refuses the first bad level as in a scalar table."""
    if np.minimum.reduce(lead) >= _MIN_NORMAL and math.isfinite(np.add.reduce(values)):
        return values  # else walk the levels: the sum of finite values may overflow
    bad = np.flatnonzero(~((lead >= _MIN_NORMAL) & np.isfinite(values))).tolist()
    values[bad] = _levels(fn, stage, [levels[i] for i in bad])
    return values


def _split_residual(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[float, float]:
    """Max scaled |R| over the trusted block and over the last row and column.

    `pairs` holds (R, scale) diagonals as ``np.diag`` reads them; the last
    entry of each lies in the last row or column, the others in the trusted
    block.
    """
    inner, boundary = [], []
    for R, scale in pairs:
        scaled = np.abs(R) / np.maximum(scale, 1.0)
        inner.append(scaled[:-1].max(initial=0.0))
        boundary.append(scaled[-1])
    # np.max, unlike the builtin max, lets a NaN residual through to the report
    return float(np.max(inner)), float(np.max(boundary))


def _tridiagonal_product(
    a_sub: np.ndarray, a_sup: np.ndarray, b_sub: np.ndarray, b_sup: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals -2, 0, +2 of A @ B for A, B with only a sub- and a super-diagonal."""
    through_lower, through_upper = a_sub * b_sup, a_sup * b_sub  # via column r - 1, r + 1
    main = np.zeros(len(through_lower) + 1, dtype=np.result_type(through_lower, through_upper))
    main[1:] = through_lower
    main[:-1] += through_upper
    return a_sub[1:] * b_sub[:-1], main, a_sup[:-1] * b_sup[1:]


def _number_products(ladder: np.ndarray) -> np.ndarray:
    """Rows (a- a+ diagonal, a+ a- diagonal) for ladder amplitudes `ladder`."""
    squares = ladder * ladder
    products = np.zeros((2, len(ladder) + 1), dtype=squares.dtype)
    products[0, :-1] = squares  # a- a+ at level n: ladder[n]**2, 0 at the last level
    products[1, 1:] = squares  # a+ a- at level n: ladder[n - 1]**2, 0 at level 0
    return products


def verify_heisenberg(rep: FockRep, tol: float = 1e-10) -> ResidualReport:
    """Scaled residual of p X P - q P X - i*hbar on the trusted block."""
    _check_tol(tol)
    p_eff = rep.params.p if rep.params.two_parameter else 1.0
    q = rep.params.q
    X, P = (rep.x_sub, rep.x_sup), (rep.p_sub, rep.p_sup)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual is reported
        absX, absP = tuple(map(np.abs, X)), tuple(map(np.abs, P))
        products = zip(_tridiagonal_product(*X, *P), _tridiagonal_product(*P, *X))
        R = [p_eff * xp - q * px for xp, px in products]
        abs_products = zip(_tridiagonal_product(*absX, *absP), _tridiagonal_product(*absP, *absX))
        scale = [abs(p_eff) * xp + abs(q) * px for xp, px in abs_products]
        R[1] = R[1] - 1j * HBAR  # the identity lies on the main diagonal
        scale[1] = scale[1] + 1.0
        residual, boundary = _split_residual(zip(R, scale))
    return ResidualReport("heisenberg", residual, boundary, tol)


def verify_gh_relation(rep: FockRep, gh: families.GHPair | None = None,
                       tol: float = 1e-10) -> ResidualReport:
    """Scaled residual of H(N) a- a+ - G(N) a+ a- - 1 on the trusted block.

    Without `gh`, G and H are the family's laws from `families` on one power
    vector (see the module docstring); a `gh` pair is read level by level.
    Raises DomainError naming the level where G or H leaves the double range.
    """
    _check_tol(tol)
    levels = range(rep.dim)
    if gh is None:
        family, params = rep.family, rep.params
        gh, terms = families.gh_pair(family, params), families._operator_terms(family, params)
        powers = _power_slices(params.power_base,
                               [(*w, levels) for _, lead, _, y in terms for w in (lead, y)])
        with np.errstate(all="ignore"):  # _operator's fold is not vectorised: its levels fall back
            H, G = [_settled(families._operator_value(c, lead, cd, y), lead, fn, name, levels)
                    for (c, _, cd, _), lead, y, fn, name
                    in zip(terms, powers[::2], powers[1::2], (gh.H, gh.G), "HG")]
    else:
        H = np.array(_levels(gh.H, "H", levels), dtype=float)
        G = np.array(_levels(gh.G, "G", levels), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual is reported
        raise_then_lower, lower_then_raise = _number_products(rep.ladder)
        R = H * raise_then_lower - G * lower_then_raise - 1.0
        scale = np.abs(H) * np.abs(raise_then_lower) + np.abs(G) * np.abs(lower_then_raise) + 1.0
        residual, boundary = _split_residual([(R, scale)])
    return ResidualReport("gh_relation", residual, boundary, tol)


def verify_ladder(rep: FockRep, tol: float = 1e-10) -> ResidualReport:
    """Residuals of [N, a+] = a+, [N, a-] = -a-, [a-, a+] = phi(N+1) - phi(N).

    The expected commutator diagonal is the family's closed form, so
    representations built from a corrupted phi fail here too.  It is the
    table build_rep kept when it used the closed form itself; after a ``phi=``
    override, on a hand-built FockRep and on any ``dataclasses.replace`` copy
    it is recomputed from (family, params).
    """
    _check_tol(tol)
    ladder, abs_ladder = rep.ladder, np.abs(rep.ladder)
    num = np.arange(rep.dim, dtype=float)
    phi_vals = rep._phi
    if phi_vals is None:
        phi_vals = np.array(_phi_table(rep.family, rep.params, rep.dim + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual is reported
        raise_then_lower, lower_then_raise = _number_products(ladder)
        abs_raise_then_lower, abs_lower_then_raise = _number_products(abs_ladder)
        steps = phi_vals[1:] - phi_vals[:-1]
        step_scale = np.abs(phi_vals[1:]) + np.abs(phi_vals[:-1])
        residual, boundary = _split_residual((
            # [N, a+] - a+ on diagonal -1, [N, a-] + a- on diagonal +1
            (num[1:] * ladder - ladder * num[:-1] - ladder,
             num[1:] * abs_ladder + abs_ladder * num[:-1] + abs_ladder),
            (num[:-1] * ladder - ladder * num[1:] + ladder,
             num[:-1] * abs_ladder + abs_ladder * num[1:] + abs_ladder),
            (raise_then_lower - lower_then_raise - steps,
             abs_raise_then_lower + abs_lower_then_raise + step_scale),
        ))
    return ResidualReport("ladder", residual, boundary, tol)
