"""Truncated Fock-space representations and algebra verifiers.

Storage: a+ and a- are single off-diagonals, and X and P are tridiagonal
with a zero diagonal, so a :class:`FockRep` keeps O(D) level vectors: the
ladder amplitudes sqrt(phi(1..D-1)) and the sub- and super-diagonals of X
and P.  The dense D x D matrices are read-only properties built on request
in O(D^2); no library code reads them.  The closed-form phi(0..D) comes
from dsf's one validated table, the one the CLI's dsf tables print.  When
build_rep evaluates it itself, the rep keeps that table and verify_ladder
reuses it; a rep built with a ``phi=`` override, built by hand or copied
with ``dataclasses.replace`` has none, and verify_ladder recomputes it.
build_rep reads each coefficient only at the levels the bands use: f and h
at 0..D-2, g and k at 1..D-1.

Band rule: the verifiers hold each operator as {offset: vector} with
vector[r] = M[r, r + offset], zero where the column leaves the matrix.  The
product of bands a and b lands on band a + b with entry
A[r, r + a] * B[r + a, r + a + b], so every product, absolute value and
scale of the dense formulas is formed band by band in O(D).  Every entry off
the bands is exactly 0 in both layouts, so the maxima are the same.

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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dsf import (
    DeformationParams, FamilyId, _as_params, _check_level, _check_tol, _levels, _phi_table,
)
from .errors import DomainError
from .families import GHPair, coefficients, gh_pair

__all__ = ["HBAR", "MAX_DIM", "FockRep", "ResidualReport", "build_rep",
           "verify_heisenberg", "verify_gh_relation", "verify_ladder"]

HBAR = 1.0  # fixed, not a parameter

# Bounds the O(D) verifier work and the dense properties (16 D^2 bytes each);
# the stored representation itself is O(D).
MAX_DIM = 10_000


class _Bands(dict):
    """An operator as {offset: vector}, vector[r] = M[r, r + offset].

    Every vector has length D; rows whose column r + offset falls outside
    the matrix hold 0.
    """

    @classmethod
    def of(cls, dim: int, diagonals: dict[int, np.ndarray]) -> "_Bands":
        """Pad diagonals as ``np.diag(M, offset)`` reads them to length-D rows."""
        bands = cls()
        for offset, diagonal in diagonals.items():
            rows = np.zeros(dim, dtype=diagonal.dtype)
            rows[max(-offset, 0):dim - max(offset, 0)] = diagonal
            bands[offset] = rows
        return bands

    def dense(self) -> np.ndarray:
        dim = len(next(iter(self.values())))
        matrix = np.zeros((dim, dim), dtype=complex)
        for offset, rows in self.items():
            matrix += np.diag(rows[max(-offset, 0):dim - max(offset, 0)], offset)
        return matrix

    def __matmul__(self, other: "_Bands") -> "_Bands":
        out = _Bands()
        for a, left in self.items():
            for b, right in other.items():
                shifted = right  # shifted[r] = right[r + a]
                if a:
                    shifted = np.zeros_like(right)
                    if a > 0:
                        shifted[:-a] = right[a:]
                    else:
                        shifted[-a:] = right[:a]
                term = left * shifted
                out[a + b] = out[a + b] + term if a + b in out else term
        return out

    def __add__(self, other: "_Bands") -> "_Bands":
        out = _Bands(self)
        for offset, rows in other.items():
            out[offset] = out[offset] + rows if offset in out else rows
        return out

    def __neg__(self) -> "_Bands":
        return _Bands({offset: -rows for offset, rows in self.items()})

    def __sub__(self, other: "_Bands") -> "_Bands":
        return self + -other

    def __rmul__(self, scalar: complex) -> "_Bands":
        return _Bands({offset: scalar * rows for offset, rows in self.items()})

    def __abs__(self) -> "_Bands":
        return _Bands({offset: np.abs(rows) for offset, rows in self.items()})


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
    def _a_plus_bands(self) -> _Bands:
        return _Bands.of(self.dim, {-1: self.ladder})

    @property
    def _a_minus_bands(self) -> _Bands:
        return _Bands.of(self.dim, {1: self.ladder})

    @property
    def _x_bands(self) -> _Bands:
        return _Bands.of(self.dim, {-1: self.x_sub, 1: self.x_sup})

    @property
    def _p_bands(self) -> _Bands:
        return _Bands.of(self.dim, {-1: self.p_sub, 1: self.p_sup})

    @property
    def a_plus(self) -> np.ndarray:
        return self._a_plus_bands.dense()

    @property
    def a_minus(self) -> np.ndarray:
        return self._a_minus_bands.dense()

    @property
    def num(self) -> np.ndarray:
        return np.diag(np.arange(self.dim)).astype(complex)

    @property
    def X(self) -> np.ndarray:
        return self._x_bands.dense()

    @property
    def P(self) -> np.ndarray:
        return self._p_bands.dense()


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

    Raises DomainError naming the level where phi is negative, or where phi
    or a coefficient f, g, h, k leaves the double-precision range.
    """
    family = FamilyId.parse(family)
    params = _as_params(params)
    _check_level(dim, "dim")
    if not 3 <= dim <= MAX_DIM:
        raise DomainError(f"dim must be in [3, {MAX_DIM}], got {dim}")
    if phi is None:
        phi_vals = np.array(_phi_table(family, params, dim + 1))
    else:
        phi_vals = np.array(_levels(phi, "phi", range(dim + 1)), dtype=float)
    negative = np.flatnonzero(phi_vals < 0)
    if negative.size:
        n = int(negative[0])
        raise DomainError(f"phi({n}) = {float(phi_vals[n])!r} < 0: ladder amplitudes undefined")
    roots = np.sqrt(phi_vals[1:dim])  # sqrt(phi(1)) .. sqrt(phi(D-1))

    cs = coefficients(family, params)
    # X = f(N) a- + g(N) a+ and P = i (k(N) a+ - h(N) a-), row by row: the
    # super-diagonals read f and h at 0..D-2, the sub-diagonals g and k at 1..D-1
    lower, upper = range(dim - 1), range(1, dim)
    f, g, h, k = [np.array(_levels(fn, name, levels)) for fn, name, levels in (
        (cs.f, "f", lower), (cs.g, "g", upper), (cs.h, "h", lower), (cs.k, "k", upper))]
    rep = FockRep(family=family, params=params, dim=dim, ladder=roots,
                  x_sub=(g * roots).astype(complex),
                  x_sup=(f * roots).astype(complex),
                  p_sub=1j * (k * roots),
                  p_sup=-1j * (h * roots))
    if phi is None:
        object.__setattr__(rep, "_phi", phi_vals)  # frozen dataclass
    return rep


def _split_residual(R: _Bands, scale: _Bands, trusted: int) -> tuple[float, float]:
    """Max scaled |R| over the trusted block and over the last row and column.

    Row r of band `offset` is entry (r, r + offset), which lies in the
    trusted block iff r < trusted - max(offset, 0).
    """
    inner, boundary = [], []
    for offset, rows in R.items():
        scaled = np.abs(rows) / np.maximum(scale[offset], 1.0)
        cut = trusted - max(offset, 0)
        inner.append(scaled[:cut].max(initial=0.0))
        boundary.append(scaled[cut:].max(initial=0.0))
    return float(np.max(inner)), float(np.max(boundary))


def _eye(dim: int) -> _Bands:
    return _Bands({0: np.ones(dim)})


def verify_heisenberg(rep: FockRep, tol: float = 1e-10) -> ResidualReport:
    """Scaled residual of p X P - q P X - i*hbar on the trusted block."""
    _check_tol(tol)
    p_eff = rep.params.p if rep.params.two_parameter else 1.0
    q = rep.params.q
    X, P, eye = rep._x_bands, rep._p_bands, _eye(rep.dim)
    R = p_eff * (X @ P) - q * (P @ X) - 1j * HBAR * eye
    absX, absP = abs(X), abs(P)
    scale = abs(p_eff) * (absX @ absP) + abs(q) * (absP @ absX) + eye
    residual, boundary = _split_residual(R, scale, rep.trusted)
    return ResidualReport("heisenberg", residual, boundary, tol)


def verify_gh_relation(rep: FockRep, gh: GHPair | None = None, tol: float = 1e-10) -> ResidualReport:
    """Scaled residual of H(N) a- a+ - G(N) a+ a- - 1 on the trusted block.

    Raises DomainError naming the level where G or H leaves the
    double-precision range.
    """
    _check_tol(tol)
    if gh is None:
        gh = gh_pair(rep.family, rep.params)
    levels = range(rep.dim)
    Hd = _Bands({0: np.array(_levels(gh.H, "H", levels), dtype=float)})
    Gd = _Bands({0: np.array(_levels(gh.G, "G", levels), dtype=float)})
    ap, am, eye = rep._a_plus_bands, rep._a_minus_bands, _eye(rep.dim)
    raise_then_lower = am @ ap
    lower_then_raise = ap @ am
    R = Hd @ raise_then_lower - Gd @ lower_then_raise - eye
    scale = abs(Hd) @ abs(raise_then_lower) + abs(Gd) @ abs(lower_then_raise) + eye
    residual, boundary = _split_residual(R, scale, rep.trusted)
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
    ap, am = rep._a_plus_bands, rep._a_minus_bands
    num = _Bands({0: np.arange(rep.dim, dtype=float)})
    abs_ap, abs_am, abs_num = abs(ap), abs(am), abs(num)
    phi_vals = rep._phi
    if phi_vals is None:
        phi_vals = np.array(_phi_table(rep.family, rep.params, rep.dim + 1))
    steps = _Bands({0: phi_vals[1:] - phi_vals[:-1]})
    step_scale = _Bands({0: np.abs(phi_vals[1:]) + np.abs(phi_vals[:-1])})
    checks = (
        (num @ ap - ap @ num - ap, abs_num @ abs_ap + abs_ap @ abs_num + abs_ap),
        (num @ am - am @ num + am, abs_num @ abs_am + abs_am @ abs_num + abs_am),
        (am @ ap - ap @ am - steps, abs_am @ abs_ap + abs_ap @ abs_am + step_scale),
    )
    # np.max, unlike the builtin max, lets a NaN residual through to the report
    residual, boundary = np.max([_split_residual(R, scale, rep.trusted) for R, scale in checks],
                                axis=0)
    return ResidualReport("ladder", float(residual), float(boundary), tol)
