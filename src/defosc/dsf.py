"""Deformation brackets and structure functions of deformed oscillators.

A deformed oscillator algebra is fixed by its structure function phi through
a+ a- = phi(N) and the ladder action a+|n> = sqrt(phi(n+1)) |n+1>.  This
module evaluates the closed-form phi of the eight built-in coefficient
families (A-D with one deformation parameter q, their two-parameter
counterparts At-Dt with q and p), reconstructs phi from arbitrary operator
functions (G, H) of the defining relation H(N) a- a+ - G(N) a+ a- = 1, and
provides the q-number brackets and the (q <-> 1/q)- and (q <-> p)-symmetrized phi.

Conventions: hbar = 1 throughout; parameters of the core families are real
and strictly positive, while the symmetrized forms also accept q on the unit
circle, or complex q and p such as a conjugate pair.
"""

from __future__ import annotations

import cmath
import math
import sys
from enum import Enum
from numbers import Complex, Integral, Rational, Real
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
    "phi_symmetrized",
    "phi_symmetrized_qp",
    "symmetrized_routes",
]

#: |1 + x**(2n-2)| or |1 + x**(2n)| below this counts as a pole (unit circle).
POLE_TOLERANCE = 1e-8

_INF = float("inf")
_MAX_FLOAT = sys.float_info.max
_MAX_LEVEL = int(_MAX_FLOAT) // 8  # the kernels' exponents, up to 5 n, must convert to a float


def _show(value: object) -> str:
    """repr(value) for a message, but an int beyond the double range as "an int of 401 digits",
    and a Fraction with a numerator or denominator beyond it as "a Fraction near 3.3e+399":
    the digits would flood the message, and past 4 300 of them repr raises."""
    if isinstance(value, tuple) and len(value) > 1:
        return f"({', '.join(map(_show, value))})"
    if isinstance(value, Rational) and not isinstance(value, Integral) \
            and max(abs(value.numerator), value.denominator) > _MAX_FLOAT:
        e = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        near = f"{'-' * (value < 0)}{10 ** (e % 1):.2g}e{math.floor(e):+d}"
        return f"a {type(value).__name__} near {near}"
    if not isinstance(value, int) or abs(value) <= _MAX_FLOAT:
        return repr(value)
    digits = int((abs(value).bit_length() - 1) * 0.3010299956639812) + 1  # times log10(2)
    digits += abs(value) >= 10**digits
    return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"


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
        tag = (_SPELLINGS.get(value) or _match_spelling(value)) if isinstance(value, str) else None
        if tag is None:
            raise DomainError(f"unknown family tag {_show(value)}")
        return tag


def _match_spelling(value: str) -> FamilyTag | None:
    """The tag a spelling names under the normalise/casefold rule, or None."""
    # a combining tilde or a trailing ~ both mean the two-parameter twin
    text = unicodedata.normalize("NFD", value.strip())
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


class _Record:
    """A frozen value object over its ``__slots__`` fields: ``==``, ``hash`` and ``repr``
    as a frozen dataclass has them; pickle and copy rebuild it through its constructor."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__reduce__() == other.__reduce__()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")
    __delattr__ = __setattr__


class FamilyId(_Record):
    """A coefficient family together with the ratio constants c(0), d(0).

    The defaults c0 = d0 = 1 select the printed solutions; other finite real
    values, stored as floats, feed :func:`defosc.families.general_gh`.
    """

    __slots__ = ("tag", "c0", "d0")

    def __init__(self, tag: FamilyTag, c0: float = 1.0, d0: float = 1.0):
        self._init(tag, _real_constant(c0, "c0"), _real_constant(d0, "d0"))

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


def _real_constant(value: object, name: str) -> float:
    """A finite real c0 or d0 as the float it holds, else DomainError."""
    try:  # float() of an int or a Fraction beyond the double range raises OverflowError
        if isinstance(value, Real) and math.isfinite(constant := float(value)):
            return constant
    except OverflowError:
        pass
    raise DomainError(f"FamilyId requires finite real {name}, got {_show(value)}")


# tag -> its printed family (c0 = d0 = 1), built once; frozen, so safe to share
_PRINTED = {tag: FamilyId(tag) for tag in FamilyTag}
# the same ids under every common spelling, so a string skips FamilyTag.parse
_PRINTED_SPELLINGS = {spelling: _PRINTED[tag] for spelling, tag in _SPELLINGS.items()}


class DeformationParams(_Record):
    """Deformation parameters: q alone, or q and p with derived Q = q/p."""

    __slots__ = ("q", "p")

    def __init__(self, q: float | complex, p: float | complex | None = None):
        # a numpy real scalar as the Python float or int it holds: no numpy arithmetic in the kernels
        # and a Fraction beyond the double range as itself, which require_real_positive refuses
        q, p = [v if type(v) is float or v is None or isinstance(v, int) or not isinstance(v, Real)
                or isinstance(v, Rational) and abs(v) > _MAX_FLOAT
                else (int if isinstance(v, Integral) else float)(v) for v in (q, p)]
        if p is not None and p == 0:
            raise DomainError("p = 0 is not admissible (Q = q/p must be finite)")
        object.__setattr__(self, "q", q)  # not _init's loop: built per call given a bare q
        object.__setattr__(self, "p", p)

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
        """Reject complex or nonpositive parameters, or a Q = q/p out of range (core-family domain)."""
        q, p = self.q, self.p
        if (type(q) is float and 0 < q < _INF
                and (p is None or type(p) is float and 0 < p < _INF and 0 < q / p < _INF)):
            return
        _require_positive(q, "q", context)
        if p is not None:
            _require_positive(p, "p", context)
            _require_positive(q / p, "Q = q/p", context)  # the power base under- or overflows


def _require_positive(value: object, name: str, context: str) -> None:
    """Refuse all but a finite real value > 0; a complex one even with a zero imaginary part."""
    if not isinstance(value, Real):
        raise DomainError(f"{context} requires real {name}, got {_show(value)}")
    if not 0 < value <= _MAX_FLOAT:  # an int beyond the double range is not finite
        raise DomainError(f"{context} requires finite {name} > 0, got {_show(value)}")


def _require_nonzero(value: object, name: str, context: str) -> None:
    """Refuse all but a finite nonzero real or complex value: both parts in the double range."""
    if value == 0 or not (abs(value.real) <= _MAX_FLOAT and abs(value.imag) <= _MAX_FLOAT):
        raise DomainError(f"{context} requires finite {name} != 0, got {_show(value)}")


def _plain(value: object) -> object:
    """A numpy float or complex scalar as the Python float or complex it holds, else the value
    itself: numpy would compare an np.float32 with _MAX_FLOAT in float32, where it overflows."""
    if isinstance(value, Rational) or not isinstance(value, Complex):  # an int, a Fraction, ...
        return value
    return float(value) if isinstance(value, Real) else complex(value)


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
    """n as an int in [0, _MAX_LEVEL], else DomainError naming `name`: the bound keeps
    every exponent the kernels form (up to 5 n) convertible to a float."""
    if type(n) is int and 0 <= n <= _MAX_LEVEL:
        return n
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise DomainError(f"{name} must be an integer, got {_show(n)}")
    if n < 0:
        raise DomainError(f"{name} must be >= 0, got {_show(int(n))}")  # a numpy int as its int
    if n > _MAX_LEVEL:
        raise DomainError(f"{name} must be <= sys.float_info.max / 8, got {_show(n)}")
    return int(n)


def _check_tol(tol: float) -> None:
    if type(tol) is not float and not isinstance(tol, Real):  # a float skips the slower ABC check
        raise DomainError(f"tol must be real, got {_show(tol)}")
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {_show(tol)}")
    if tol > _MAX_FLOAT:  # inf, or an int beyond the double range: accepts any residual
        raise DomainError(f"tol must be finite, got {_show(tol)}")


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def bracket_q(n: int, q: float) -> float:
    """q-bracket [n]_q = (1 - q**n)/(1 - q), with the q = 1 limit n taken exactly."""
    n = _check_level(n)
    q = _plain(q)
    _require_positive(q, "q", "bracket_q")
    if q == 1:
        return float(n)
    x = float(q)  # an int q would build the exact int q**n before the range refusal
    return _in_range("bracket_q", (n, q), lambda: (1.0 - x**n) / (1.0 - x))


def bracket_pq(x: int, q: float, p: float) -> float:
    """(p,q)-bracket [x]_{q,p} = (p**x - q**x)/(p - q); at p = q the limit x*q**(x-1)."""
    x = _check_level(x)
    q, p = _plain(q), _plain(p)
    _require_positive(q, "q", "bracket_pq")
    _require_positive(p, "p", "bracket_pq")
    fq, fp = float(q), float(p)  # as in bracket_q
    if fp == fq:
        return _in_range("bracket_pq", (x, q, p), lambda: x * fq ** (x - 1))
    return _in_range("bracket_pq", (x, q, p), lambda: (fp**x - fq**x) / (fp - fq))


def bracket_sym(x: int, q: float | complex) -> float | complex:
    """Symmetric bracket [[x]]_q = (q**x - q**-x)/(q - 1/q).

    At q = +-1 the removable singularity is replaced by the limit x*q**(x-1).
    Real for real q and on the unit circle, where it equals sin(x*theta)/sin(theta).
    """
    x = _check_level(x)
    q = _plain(q)
    if not isinstance(q, Complex):  # a str, None or a Decimal has no .real to test
        raise DomainError(f"bracket_sym requires real or complex q, got {_show(q)}")
    _require_nonzero(q, "q", "bracket_sym")
    if q == 1 or q == -1:
        return x * q ** ((x - 1) % 2)  # by parity: a float or complex power of x - 1 loses it
    s = float(q) if isinstance(q, Real) else q  # as in bracket_q
    return _in_range("bracket_sym", (x, q), lambda: (s**x - s ** (-x)) / (s - 1.0 / s))


def _in_range(name: str, args: tuple, formula: Callable[[], float | complex]) -> float | complex:
    """formula(), or DomainError naming the call `name(*args)` when it leaves the double range."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):  # the latter: a q or p that underflowed to 0.0
        value = _INF
    if not cmath.isfinite(value):
        raise DomainError(f"{name}({', '.join(map(_show, args))}) leaves the double-precision range")
    return value


# ---------------------------------------------------------------------------
# closed-form structure functions
# ---------------------------------------------------------------------------

# The one per-family table: (e_f, e_k) per base letter, with
# f(n) = x**(e_f n)/sqrt(2) and k(n) = x**(e_k n)/sqrt(2) at base x = q or Q.
# g, h, G, H, the closed-form phi and the ratio exponents all derive from it.
_EXPONENTS = {"A": (1, 1), "B": (-2, -2), "C": (-2, 1), "D": (1, -2)}
# (a, b) of the closed-form phi's leading power x**(a n + b), per base letter
_PHI_AB = {letter: (1 - ef - ek, ef - 1) for letter, (ef, ek) in _EXPONENTS.items()}
# (e, d) of _phi_value's powers x**(e n + d) in argument order, read by fock's tables alone
_PHI_POWERS = {letter: (ab, (1, 0), (-1, 1), (2, -2), (2, 0)) for letter, ab in _PHI_AB.items()}

_MIN_NORMAL = 2.0**-1022  # smallest normal double; phi_closed rejects smaller phi(n >= 1)


def _phi_value(x, p, lead, xn, x1n, d1, d2):
    """phi(n) from lead = x**(a n + b), xn = x**n, x1n = x**(1-n), d1 = x**(2n-2) and
    d2 = x**(2n), with only + - * /: floats, complex numbers and numpy arrays alike."""
    return 2.0 * lead * ((1.0 - xn) / (1.0 - x)) * (1.0 + x1n) / ((1.0 + d1) * (1.0 + d2)) / p


def _phi_power_base(
    letter: str, x: float | complex, n: int, p: float | complex = 1.0
) -> float | complex:
    """Closed-form structure function of base `letter` at base x, divided by p.

    phi(n) = 2 x**(a n + b) [n]_x (1 + x**(1-n)) / ((1 + x**(2n-2)) (1 + x**(2n)) p),
    _phi_value of the powers with (a, b) from _PHI_AB.  Supports complex x (the
    symmetrized forms); raises PoleError when a denominator vanishes on the unit
    circle and DomainError when phi(n) overflows, at an int x before its exact
    powers are formed.  At a real base a value that may have lost range on the way
    is recomputed by _phi_rescaled; a true underflow returns 0.0 or a subnormal,
    which phi_closed rejects.
    """
    if n == 0:
        return 0j if isinstance(x, complex) else 0.0
    if x == 1:
        return n / p
    a, b = _PHI_AB[letter]
    # an int x >= 2 puts phi(n) between x**(e-1)/4 and 4 x**e (e as in _phi_rescaled),
    # so past 2**1100 or 2**-1100 it is out of range whatever the exact powers give
    if type(x) is int and (abs((a - 3) * n + b + 2) - 1) * math.log2(x) > 1100:
        raise DomainError(f"phi({_show(n)}) leaves the double-precision range at base {_show(x)}")
    real = not isinstance(x, complex)
    try:
        d1, d2 = x ** (2 * n - 2), x ** (2 * n)
        if not real and min(abs(1.0 + d1), abs(1.0 + d2)) < POLE_TOLERANCE:
            raise PoleError(n, cmath.phase(x))
        lead = x ** (a * n + b)
        value = _phi_value(x, p, lead, x**n, x ** (1 - n), d1, d2)
    except (OverflowError, ZeroDivisionError):  # complex x**(1-n) divides by an underflowed 0
        lead = value = _INF
    if real:
        if lead >= _MIN_NORMAL and _MIN_NORMAL <= value < _INF:
            return value
        value = _phi_rescaled(a, b, x, n, p)  # a power left the normal range on the way
    if not cmath.isfinite(value):
        raise DomainError(f"phi({_show(n)}) leaves the double-precision range at base {_show(x)}")
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
    # the common call in one test, with no frame: a printed family, DeformationParams of finite
    # positive floats (q/p too) and an int level in range; any other call takes the four checks
    fid = family if type(family) is FamilyId else type(family) is str and _PRINTED_SPELLINGS.get(family)
    if fid and type(params) is DeformationParams and type(n) is int and 0 <= n <= _MAX_LEVEL \
            and fid.c0 == fid.d0 == 1.0 and type(q := params.q) is float and 0 < q < _INF:
        p, tag = params.p, fid.tag
        if p is None and not tag.two_parameter:
            return _phi_at(tag.letter, q, n)
        if tag.two_parameter and type(p) is float and 0 < p < _INF and 0 < q / p < _INF:
            return _phi_at(tag.letter, q / p, n, p)
    family = FamilyId.parse(family)
    params = _as_params(params)
    n = _check_level(n)
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
        raise DomainError(f"phi({_show(n)}) leaves the double-precision range at base {_show(x)}")
    return value


def _energy_at(letter: str, x: float, n: int) -> float:
    """spectra.energy's E(n) from checked one-parameter arguments: at a float x != 1 and
    n >= 1 from the nine powers of phi(n) and phi(n+1), each formed once; else, or where
    a level is not a normal double, through _phi_at, so values and refusals are energy's."""
    if type(x) is float and x != 1.0 and n:
        a, b = _PHI_AB[letter]
        try:
            lead0, lead1 = x ** (a * n + b), x ** (a * (n + 1) + b)
            d1 = x ** (2 * n)
            phi0 = _phi_value(x, 1.0, lead0, x**n, x ** (1 - n), x ** (2 * n - 2), d1)
            phi1 = _phi_value(x, 1.0, lead1, x ** (n + 1), x**-n, d1, x ** (2 * n + 2))
        except (OverflowError, ZeroDivisionError):
            phi0 = _INF  # falls back
        if (_MIN_NORMAL <= phi0 < _INF and _MIN_NORMAL <= phi1 < _INF
                and lead0 >= _MIN_NORMAL and lead1 >= _MIN_NORMAL):
            return 0.5 * (phi1 + phi0)
    phi_n = _phi_at(letter, x, n)  # first, so a bad level is refused as given
    return 0.5 * (_phi_at(letter, x, n + 1) + phi_n)


def phi_from_gh(G: Callable[[int], float], H: Callable[[int], float], n: int) -> float:
    """Reconstruct phi(n) from the operator functions G and H.

    Solves the defining relation H(k) phi(k+1) - G(k) phi(k) = 1 level by
    level from phi(0) = 0:

        phi(k+1) = (1 + G(k) phi(k)) / H(k).

    Reads H(0..n-1) and G(1..n-1).  Raises SingularRecipeError naming k when
    H(k) = 0, and DomainError naming the level when phi leaves the double range
    or G(k) or H(k) raises OverflowError or ZeroDivisionError or is not finite.
    """
    _check_level(n)
    phi = 0.0
    try:
        for k in range(n):
            h = H(k)
            phi = (1.0 + G(k) * phi) / h if k else 1.0 / h  # G(0) meets phi(0) = 0
            if h - h or not cmath.isfinite(phi):  # h - h is nan, which is true, at h = inf or nan
                break
        else:
            return phi
    except (OverflowError, ZeroDivisionError):
        pass
    # level k failed: H(k) is zero or out of range, else G(k) is out of range, else phi(k + 1)
    if _levels(H, "H", range(k, k + 1)) == [0]:
        raise SingularRecipeError("H", k)
    if k:
        _levels(G, "G", range(k, k + 1))
    raise DomainError(f"recipe phi({k + 1}) leaves the double-precision range")


def _levels(fn: Callable[[int], float], stage: str, levels: range) -> list[float]:
    """fn over levels in one walk, which stops at the first level that raises or is not
    finite and names it in a DomainError."""
    values = []
    try:
        for n in levels:
            if not cmath.isfinite(value := fn(n)):
                break
            values.append(value)
        else:
            return values
    except (OverflowError, ZeroDivisionError):
        pass
    raise DomainError(f"{stage}({n}) leaves the double-precision range")


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
# symmetrized structure functions
# ---------------------------------------------------------------------------

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
    n = _check_level(n)
    base = FamilyId.parse(base)
    if base.two_parameter:
        raise DomainError("unit-circle symmetrization applies to one-parameter families")
    x = _validate_sym_parameter(_plain(q))
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
    n = _check_level(n)
    q, p = _plain(q), _plain(p)
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


# ---------------------------------------------------------------------------
# evaluatable structure function with provenance
# ---------------------------------------------------------------------------

Provenance = Literal["closed-form", "recipe", "symmetrized"]


class StructureFunction(_Record):
    """An evaluatable phi(n) tagged with how it was obtained."""

    __slots__ = ("family", "params", "kind")

    def __init__(self, family: FamilyId, params: DeformationParams,
                 kind: Provenance = "closed-form"):
        self._init(family, params, kind)

    @classmethod
    def closed_form(cls, family, params) -> "StructureFunction":
        family = FamilyId.parse(family)
        params = _as_params(params)
        _check_family_params(family, params, "StructureFunction.closed_form")
        return cls(family, params, "closed-form")

    @classmethod
    def from_gh(cls, family, params) -> "StructureFunction":
        """Recipe-reconstructed phi using the family's own (G, H) pair."""
        recipe = cls(FamilyId.parse(family), _as_params(params), "recipe")
        recipe(0)  # builds the pair, so gh_pair refuses a bad (family, params) here
        return recipe

    @classmethod
    def symmetrized(cls, family, params) -> "StructureFunction":
        """phi_symmetrized of a one-parameter family, phi_symmetrized_qp when params carry p."""
        symmetrized = cls(FamilyId.parse(family), _as_params(params), "symmetrized")
        symmetrized(0)  # refuses a bad (family, params) here, as from_gh does
        return symmetrized

    def __call__(self, n: int) -> float:
        if self.kind == "closed-form":
            return phi_closed(self.family, self.params, n)
        if self.kind == "recipe":
            from . import families as _families  # families imports dsf

            pair = _families.gh_pair(self.family, self.params)
            return phi_from_gh(pair.G, pair.H, n)
        if self.params.p is None:
            return phi_symmetrized(self.family, self.params.q, n)
        return phi_symmetrized_qp(self.family, self.params.q, self.params.p, n)
