"""Deformation brackets and structure functions of deformed oscillators.

A deformed oscillator algebra is fixed by its structure function phi through
a+ a- = phi(N) and the ladder action a+|n> = sqrt(phi(n+1)) |n+1>.  This
module evaluates the closed-form phi of the eight built-in coefficient
families (A-D with one deformation parameter q, their two-parameter
counterparts At-Dt with q and p), reconstructs phi from arbitrary operator
functions (G, H) of the defining relation H(N) a- a+ - G(N) a+ a- = 1, and
provides the underlying q-number brackets.

Conventions: hbar = 1 throughout; parameters of the core families are real
and strictly positive (complex unit-circle parameters are the business of
:mod:`defosc.symmetry`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral, Real
from typing import Callable, Literal
import unicodedata

from .errors import DomainError, PoleError, SingularRecipeError

__all__ = [
    "FamilyTag",
    "FamilyId",
    "DeformationParams",
    "StructureFunction",
    "bracket_q",
    "bracket_pq",
    "bracket_sym",
    "phi_closed",
    "phi_from_gh",
    "phi_ratio_check",
]

#: |1 + x**(2n-2)| or |1 + x**(2n)| below this counts as a pole (unit circle).
POLE_TOLERANCE = 1e-8

_INF = float("inf")


class FamilyTag(Enum):
    """Coefficient-family label: A-D one-parameter, At-Dt two-parameter.

    Each member carries three plain attributes: ``letter``, the base letter
    A-D shared by a one-parameter family and its tilde twin; ``two_parameter``;
    and ``index``, the position 1-4 of the family's closed-form structure
    function.
    """

    A = "A"
    B = "B"
    C = "C"
    D = "D"
    AT = "At"
    BT = "Bt"
    CT = "Ct"
    DT = "Dt"

    def __init__(self, value: str):
        self.letter = value[0]
        self.two_parameter = value.endswith("t")
        self.index = "ABCD".index(self.letter) + 1

    @classmethod
    def parse(cls, value: "FamilyTag | str") -> "FamilyTag":
        if isinstance(value, FamilyTag):
            return value
        if type(value) is str:
            tag = _SPELLINGS.get(value)
            if tag is not None:
                return tag
        tag = _match_spelling(value)
        if tag is None:
            raise DomainError(f"unknown family tag {value!r}")
        return tag


def _match_spelling(value: object) -> FamilyTag | None:
    """The tag a spelling names under the normalise/casefold rule, or None."""
    # a combining tilde or a trailing ~ both mean the two-parameter twin
    text = unicodedata.normalize("NFD", str(value).strip())
    folded = text.replace("\u0303", "t").replace("~", "t").casefold()
    for tag in FamilyTag:
        if folded in (tag.name.casefold(), tag.value.casefold()):
            return tag
    return None


def _common_spellings(tag: FamilyTag) -> set[str]:
    """Name, value, X~, X + combining tilde and NFC X-tilde, in lower and upper case."""
    spellings = {tag.name, tag.value}
    if tag.two_parameter:
        tilde = tag.letter + "\u0303"
        spellings |= {tag.letter + "~", tilde, unicodedata.normalize("NFC", tilde)}
    return spellings | {s.lower() for s in spellings} | {s.upper() for s in spellings}


# spelling -> tag, filled by the rule itself so the lookup cannot disagree with it
_SPELLINGS = {
    spelling: _match_spelling(spelling)
    for tag in FamilyTag
    for spelling in _common_spellings(tag)
}


@dataclass(frozen=True)
class FamilyId:
    """A coefficient family together with the ratio constants c(0), d(0).

    The defaults c0 = d0 = 1 select the printed solutions; other values feed
    the general construction in :func:`defosc.families.general_gh`.
    """

    tag: FamilyTag
    c0: float = 1.0
    d0: float = 1.0

    @classmethod
    def parse(cls, value: "FamilyId | FamilyTag | str") -> "FamilyId":
        """The value itself if a FamilyId, else the shared printed-family id of its tag."""
        if isinstance(value, FamilyId):
            return value
        if type(value) is str:
            family = _PRINTED_SPELLINGS.get(value)
            if family is not None:
                return family
        return _PRINTED[FamilyTag.parse(value)]

    @property
    def two_parameter(self) -> bool:
        return self.tag.two_parameter

    @property
    def index(self) -> int:
        return self.tag.index


# tag -> its printed family (c0 = d0 = 1), built once; frozen, so safe to share
_PRINTED = {tag: FamilyId(tag) for tag in FamilyTag}
# the same ids under every common spelling, so a string skips FamilyTag.parse
_PRINTED_SPELLINGS = {spelling: _PRINTED[tag] for spelling, tag in _SPELLINGS.items()}


@dataclass(frozen=True)
class DeformationParams:
    """Deformation parameters: q alone, or q and p with derived Q = q/p."""

    q: float | complex
    p: float | complex | None = None

    def __post_init__(self):
        for name in ("q", "p"):
            value = getattr(self, name)
            # np.float64, np.float32, ... as the float they hold, so no numpy
            # scalar arithmetic (with its warnings and inf) reaches the kernels
            if type(value) is not float and isinstance(value, Real) \
                    and not isinstance(value, Integral):
                object.__setattr__(self, name, float(value))  # frozen dataclass
        if self.p is not None and self.p == 0:
            raise DomainError("p = 0 is not admissible (Q = q/p must be finite)")

    @property
    def two_parameter(self) -> bool:
        return self.p is not None

    @property
    def Q(self) -> float | complex | None:
        """q/p for two-parameter sets, None otherwise."""
        return None if self.p is None else self.q / self.p

    @property
    def power_base(self) -> float | complex:
        """The base entering the coefficient power laws: q, or Q = q/p."""
        return self.q if self.p is None else self.q / self.p

    def require_real_positive(self, context: str = "this operation") -> None:
        """Reject complex or nonpositive parameters (core-family domain)."""
        q, p = self.q, self.p
        if (type(q) is float and 0 < q < _INF
                and (p is None or type(p) is float and 0 < p < _INF)):
            return
        for name, value in (("q", q), ("p", p)):
            if value is None:
                continue
            if isinstance(value, complex):  # even with a zero imaginary part
                raise DomainError(f"{context} requires real {name}, got {value!r}")
            if not 0 < value < _INF:
                raise DomainError(f"{context} requires finite {name} > 0, got {value!r}")


def _as_params(params: DeformationParams | float) -> DeformationParams:
    if isinstance(params, DeformationParams):
        return params
    return DeformationParams(q=params)


def _check_family_params(
    family: FamilyId, params: DeformationParams, context: str, *, printed: bool = False
) -> None:
    """Arity match and real positive parameters; with `printed`, also c0 = d0 = 1."""
    if family.tag.two_parameter != (params.p is not None):  # the two properties, inlined
        kind = "two-parameter" if family.two_parameter else "one-parameter"
        raise DomainError(
            f"{context}: family {family.tag.value} is {kind} but params "
            f"{'lack' if family.two_parameter else 'carry'} p"
        )
    params.require_real_positive(context)
    if printed and (family.c0, family.d0) != (1.0, 1.0):
        raise DomainError(
            f"{context} covers the printed families (c0 = d0 = 1); reconstruct "
            "general solutions with phi_from_gh"
        )


def _check_level(n: int, name: str = "level") -> int:
    if type(n) is int and n >= 0:
        return n
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"{name} must be >= 0, got {n}")
    return int(n)


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    if tol == _INF:  # would accept any residual or bracket
        raise DomainError(f"tol must be finite, got {tol!r}")


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def bracket_q(n: int, q: float) -> float:
    """q-bracket [n]_q = (1 - q**n)/(1 - q), with the q = 1 limit n taken exactly."""
    _check_level(n)
    if isinstance(q, complex) or not 0 < q < _INF:
        raise DomainError(f"bracket_q requires finite real q > 0, got {q!r}")
    if q == 1:
        return float(n)
    return _in_range("bracket_q", (n, q), lambda: (1.0 - q**n) / (1.0 - q))


def bracket_pq(x: int, q: float, p: float) -> float:
    """(p,q)-bracket [x]_{q,p} = (p**x - q**x)/(p - q); at p = q the limit x*q**(x-1)."""
    _check_level(x)
    for name, value in (("q", q), ("p", p)):
        if isinstance(value, complex) or not 0 < value < _INF:
            raise DomainError(f"bracket_pq requires finite real {name} > 0, got {value!r}")
    if p == q:
        return _in_range("bracket_pq", (x, q, p), lambda: x * q ** (x - 1))
    return _in_range("bracket_pq", (x, q, p), lambda: (p**x - q**x) / (p - q))


def bracket_sym(x: int, q: float | complex) -> float | complex:
    """Symmetric bracket [[x]]_q = (q**x - q**-x)/(q - 1/q).

    At q = +-1 the removable singularity is replaced by the limit x*q**(x-1).
    Real for real q and on the unit circle, where it equals sin(x*theta)/sin(theta).
    """
    _check_level(x)
    if q == 0 or not cmath.isfinite(q):
        raise DomainError(f"bracket_sym requires finite q != 0, got {q!r}")
    if q == 1 or q == -1:
        return x * q ** (x - 1)
    return _in_range("bracket_sym", (x, q), lambda: (q**x - q ** (-x)) / (q - 1.0 / q))


def _in_range(name: str, args: tuple, formula: Callable[[], float | complex]) -> float | complex:
    """formula(), or DomainError naming the call `name(*args)` when it leaves the double range."""
    try:
        value = formula()
    except OverflowError:
        value = _INF
    if not cmath.isfinite(value):
        raise DomainError(f"{name}({', '.join(map(repr, args))}) leaves the double-precision range")
    return value


# ---------------------------------------------------------------------------
# closed-form structure functions
# ---------------------------------------------------------------------------

# The one per-family table: (e_f, e_k) per base letter, with
# f(n) = x**(e_f n)/sqrt(2) and k(n) = x**(e_k n)/sqrt(2) at base x = q or Q.
# g, h, G, H, the closed-form phi and the ratio exponents all derive from it.
_EXPONENTS = {"A": (1, 1), "B": (-2, -2), "C": (-2, 1), "D": (1, -2)}

_MIN_NORMAL = 2.0**-1022  # smallest normal double; phi_closed rejects smaller phi(n >= 1)


def _phi_power_base(
    letter: str, x: float | complex, n: int, p: float | complex = 1.0
) -> float | complex:
    """Closed-form structure function of base `letter` at base x, divided by p.

    phi(n) = 2 x**(a n + b) [n]_x (1 + x**(1-n)) / ((1 + x**(2n-2)) (1 + x**(2n)) p)
    with (a, b) = (1 - e_f - e_k, e_f - 1).  Supports complex x (used by the
    symmetrized forms); raises PoleError when a denominator vanishes on the
    unit circle and DomainError when phi(n) overflows.  At a real base a
    value that may have lost range on the way is recomputed by _phi_rescaled;
    a true underflow returns 0.0 or a subnormal, which phi_closed rejects.
    """
    if n == 0:
        return 0j if isinstance(x, complex) else 0.0
    if x == 1:
        return n / p
    ef, ek = _EXPONENTS[letter]
    a, b = 1 - ef - ek, ef - 1
    real = not isinstance(x, complex)
    try:
        d1 = 1.0 + x ** (2 * n - 2)
        d2 = 1.0 + x ** (2 * n)
        if not real and min(abs(d1), abs(d2)) < POLE_TOLERANCE:
            raise PoleError(n, cmath.phase(x))
        qbr = (1.0 - x**n) / (1.0 - x)
        lead = x ** (a * n + b)
        value = 2.0 * lead * qbr * (1.0 + x ** (1 - n)) / (d1 * d2) / p
    except OverflowError:
        lead = value = _INF
    if real:
        if lead >= _MIN_NORMAL and _MIN_NORMAL <= value < _INF:
            return value
        value = _phi_rescaled(a, b, x, n, p)  # a power left the normal range on the way
    if not cmath.isfinite(value):
        raise DomainError(f"phi({n}) leaves the double-precision range at base {x!r}")
    return value


def _phi_rescaled(a: int, b: int, x: float, n: int, p: float) -> float:
    """The closed form of _phi_power_base at a real base x, rescaled.

    With s = min(x, 1/x) every power s**m below lies in (0, 1], and the
    dominant power of x of every factor collects in the one power x**e, so
    no intermediate leaves the double range unless phi(n) itself does.
    """
    s = min(x, 1.0 / x)
    e = (a - 1) * n + b + 1 if x < 1 else (a - 3) * n + b + 2
    rest = (2.0 * (1.0 - s**n) / abs(x - 1.0) * (1.0 + s ** (n - 1))
            / ((1.0 + s ** (2 * n - 2)) * (1.0 + s ** (2 * n))))
    try:
        return rest * x**e / p
    except OverflowError:
        return _INF


def phi_closed(family: FamilyId | str, params: DeformationParams | float, n: int) -> float:
    """Closed-form structure function of a built-in family at level n.

    One-parameter families evaluate at base q; two-parameter families at
    Q = q/p with an overall 1/p prefactor.  phi(0) = 0 for every family.
    Raises DomainError naming n when phi(n) leaves the double-precision range:
    it overflows, or phi(n >= 1) falls below the smallest normal double.
    """
    family = FamilyId.parse(family)
    params = _as_params(params)
    _check_level(n)
    _check_family_params(family, params, "phi_closed", printed=True)
    return _phi_at(family.tag.letter, params.power_base, n, params.p or 1.0)


def _phi_table(family: FamilyId, params: DeformationParams, size: int) -> list[float]:
    """phi_closed(family, params, n) for n < size, with (family, params) checked here, once."""
    _check_family_params(family, params, "phi_closed", printed=True)
    letter, x, p = family.tag.letter, params.power_base, params.p or 1.0
    return [_phi_at(letter, x, n, p) for n in range(size)]


def _phi_at(letter: str, x: float, n: int, p: float = 1.0) -> float:
    """phi_closed's value once its arguments are checked: level n of base `letter`.

    Callers validate (family, params) the way phi_closed does, then pass the
    base x = q or q/p and p (1.0 for one-parameter families).  A phi(n >= 1)
    below the smallest normal double is refused here, not in _phi_power_base,
    whose symmetrized callers may legitimately meet an underflowing term.
    """
    value = _phi_power_base(letter, x, n, p)
    if value < _MIN_NORMAL and n:  # phi > 0 at real q, p > 0
        raise DomainError(f"phi({n}) leaves the double-precision range at base {x!r}")
    return value


def phi_from_gh(G: Callable[[int], float], H: Callable[[int], float], n: int) -> float:
    """Reconstruct phi(n) from the operator functions G and H.

    Solves the defining relation H(k) phi(k+1) - G(k) phi(k) = 1 level by
    level from phi(0) = 0:

        phi(k+1) = (1 + G(k) phi(k)) / H(k).

    Reads H(0..n-1) and G(1..n-1).  Raises SingularRecipeError naming k when
    H(k) = 0, and DomainError naming the level when phi, or G(k) or H(k)
    with an OverflowError, leaves the double-precision range.
    """
    _check_level(n)
    phi = 0.0
    try:
        for k in range(n):
            h = H(k)
            if h == 0:
                raise SingularRecipeError("H", k)
            phi = (1.0 + G(k) * phi) / h if k else 1.0 / h  # G(0) meets phi(0) = 0
            if not cmath.isfinite(phi):
                raise DomainError(f"recipe phi({k + 1}) leaves the double-precision range")
    except OverflowError:
        which = "G" if _prefix(H, range(k, k + 1)) else "H"  # H(k) evaluates: G(k) failed
        raise DomainError(f"{which}({k}) leaves the double-precision range") from None
    return phi


def _prefix(fn: Callable[[int], float], levels: range) -> list[float]:
    """fn over levels, up to the first level where it raises OverflowError or ZeroDivisionError."""
    try:
        return [fn(n) for n in levels]
    except (OverflowError, ZeroDivisionError):
        values = []
        for n in levels:
            try:
                values.append(fn(n))
            except (OverflowError, ZeroDivisionError):
                return values
        return values


def phi_ratio_check(
    family_x: FamilyId | str,
    family_ref: FamilyId | str,
    params: DeformationParams | float,
    n: int,
) -> float:
    """Ratio phi_x(n)/phi_ref(n) of two families sharing the same parameters.

    For n >= 1 the ratio is a pure power of the deformation base; n = 0 is
    rejected (0/0).
    """
    family_x = FamilyId.parse(family_x)
    family_ref = FamilyId.parse(family_ref)
    if n == 0:
        raise DomainError("ratio of structure functions is undefined at n = 0")
    if family_x.two_parameter != family_ref.two_parameter:
        raise DomainError("ratio requires families of the same arity")
    return phi_closed(family_x, params, n) / phi_closed(family_ref, params, n)


# ---------------------------------------------------------------------------
# evaluatable structure function with provenance
# ---------------------------------------------------------------------------

Provenance = Literal["closed-form", "recipe", "symmetrized"]


@dataclass(frozen=True)
class StructureFunction:
    """An evaluatable phi(n) tagged with how it was obtained."""

    family: FamilyId
    params: DeformationParams
    kind: Provenance = "closed-form"
    _gh: "tuple[Callable, Callable] | None" = field(default=None, repr=False)

    @classmethod
    def closed_form(cls, family, params) -> "StructureFunction":
        family = FamilyId.parse(family)
        params = _as_params(params)
        _check_family_params(family, params, "StructureFunction.closed_form")
        return cls(family, params, "closed-form")

    @classmethod
    def from_gh(cls, family, params) -> "StructureFunction":
        """Recipe-reconstructed phi using the family's own (G, H) pair."""
        from . import families as _families

        family = FamilyId.parse(family)
        params = _as_params(params)
        pair = _families.gh_pair(family, params)
        return cls(family, params, "recipe", _gh=(pair.G, pair.H))

    @classmethod
    def symmetrized(cls, family, q) -> "StructureFunction":
        family = FamilyId.parse(family)
        return cls(family, DeformationParams(q=q), "symmetrized")

    def __call__(self, n: int) -> float:
        if self.kind == "closed-form":
            return phi_closed(self.family, self.params, n)
        if self.kind == "recipe":
            return phi_from_gh(self._gh[0], self._gh[1], n)
        from . import symmetry as _symmetry

        return _symmetry.phi_symmetrized(self.family, self.params.q, n)
