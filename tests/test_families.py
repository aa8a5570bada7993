import decimal
import math
import random
import sys
from array import array
from decimal import Decimal

import pytest

from defosc import (
    CoefficientSet,
    DeformationParams,
    DomainError,
    FamilyId,
    FamilyTag,
    coefficients,
    general_gh,
    gh_pair,
    phi_closed,
    phi_from_gh,
    ratio_kernel_constancy,
    shift_power,
    verify_ratio_recursions,
)

from conftest import ALL_FAMILIES, ONE_PARAM, TWO_PARAM, prefix_table, rel_err

SQRT2 = math.sqrt(2.0)
MIN_NORMAL, MAX = 2.0**-1022, sys.float_info.max

# the paper's printed exponents (f, g, h, k) of base**(e n)/sqrt(2), and the
# shift s in G(N) = base**s H(N-2), per base letter
PRINTED_EXPONENTS = {
    "A": (1, 2, 2, 1),
    "B": (-2, -1, -1, -2),
    "C": (-2, 2, -1, 1),
    "D": (1, -1, 2, -2),
}
PRINTED_SHIFT = {"A": 3, "B": -3, "C": 0, "D": 0}


def params_for(tag, q, p=1.1):
    if FamilyTag.parse(tag).two_parameter:
        return DeformationParams(q=q, p=p)
    return DeformationParams(q=q)


class TestCoefficients:
    def test_undeformed_point(self):
        cs = coefficients("A", 1.0)
        for n in (0, 3, 11):
            assert cs.f(n) == cs.g(n) == cs.h(n) == cs.k(n) == 1.0 / SQRT2

    def test_family_b_values(self):
        cs = coefficients("B", 2.0)
        assert cs.f(1) == pytest.approx(2.0**-2 / SQRT2, rel=1e-15)
        assert cs.k(1) == pytest.approx(2.0**-2 / SQRT2, rel=1e-15)
        assert cs.h(1) == pytest.approx(2.0**-1 / SQRT2, rel=1e-15)
        assert cs.g(1) == pytest.approx(2.0**-1 / SQRT2, rel=1e-15)

    def test_two_parameter_collapses_at_p_equal_q(self):
        cs = coefficients("At", DeformationParams(q=1.7, p=1.7))
        for n in (0, 2, 5):
            assert cs.f(n) == cs.g(n) == cs.h(n) == cs.k(n) == 1.0 / SQRT2

    def test_family_c_quadruple(self):
        q = 1.3
        cs = coefficients("C", q)
        n = 4
        assert cs.f(n) == pytest.approx(q ** (-2 * n) / SQRT2, rel=1e-14)
        assert cs.k(n) == pytest.approx(q**n / SQRT2, rel=1e-14)
        assert cs.g(n) == pytest.approx(q ** (2 * n) / SQRT2, rel=1e-14)
        assert cs.h(n) == pytest.approx(q ** (-n) / SQRT2, rel=1e-14)

    def test_arity_mismatch(self):
        with pytest.raises(DomainError):
            coefficients("A", DeformationParams(q=1.1, p=1.3))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", (0.9, 1.3))
    def test_printed_exponents(self, family, q):
        params = params_for(family, q)
        x = params.power_base
        cs = coefficients(family, params)
        exponents = PRINTED_EXPONENTS[FamilyTag.parse(family).letter]
        for n in range(-1, 12):
            for fn, e in zip((cs.f, cs.g, cs.h, cs.k), exponents):
                assert rel_err(fn(n), x ** (e * n) / SQRT2) <= 1e-14


class TestGHPair:
    def test_undeformed_pair_is_unity(self):
        pair = gh_pair("A", 1.0)
        for n in range(0, 10):
            assert pair.H(n) == 1.0
            assert pair.G(n) == 1.0

    def test_shift_identity_example(self):
        pair = gh_pair("C", 1.5)
        assert pair.G(4) == pytest.approx(pair.H(2), rel=1e-14)

    def test_collapsed_two_parameter_pair(self):
        pair = gh_pair("At", DeformationParams(q=2.0, p=2.0))
        for n in range(0, 6):
            assert pair.H(n) == pytest.approx(2.0, rel=1e-15)
            assert pair.G(n) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", (0.9, 0.99, 1.015, 1.1, 1.5))
    def test_printed_pair_matches_assembly(self, family, q):
        # H = pref f(n) k(n+1) + q h(n) g(n+1), G = pref g(n) h(n-1) + q k(n) f(n-1)
        params = params_for(family, q)
        pref = params.p if params.two_parameter else 1.0
        cs = coefficients(family, params)
        pair = gh_pair(family, params)
        for n in range(0, 61):
            h_built = pref * cs.f(n) * cs.k(n + 1) + params.q * cs.h(n) * cs.g(n + 1)
            g_built = pref * cs.g(n) * cs.h(n - 1) + params.q * cs.k(n) * cs.f(n - 1)
            assert rel_err(h_built, pair.H(n)) <= 1e-12
            assert rel_err(g_built, pair.G(n)) <= 1e-12

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", (0.9, 1.015, 1.5))
    def test_shift_identities(self, family, q):
        params = params_for(family, q)
        x = params.power_base
        s = shift_power(family)
        assert s == PRINTED_SHIFT[FamilyTag.parse(family).letter]
        pair = gh_pair(family, params)
        for n in range(2, 61):
            assert rel_err(pair.G(n), x**s * pair.H(n - 2)) <= 1e-12


# the ends of the benchmark's q and p boxes, and 0.5 and 2.0, whose powers of +-2n leave
# the double range from n = 512
GRID_Q = (0.5, 0.8, 1.5, 2.0)
GRID_P = (0.5, 0.9, 1.3, 2.0)
# the printed constants, and general ones that scale g, h and the x**(2n + b) terms of G and H
CONSTANTS = [(tag, 1.0, 1.0) for tag in ALL_FAMILIES] + [
    (tag, c0, d0) for tag in ONE_PARAM for c0, d0 in ((2.0, 0.5), (-1.5, 3.0), (0.0, 1.0))]
LEVELS = range(-1, 3001)


class TestClosuresFromTheMakers:
    """coefficients and gh_pair against the six closures as they were written by hand."""

    @pytest.mark.parametrize("tag,c0,d0", CONSTANTS)
    def test_bit_identical_to_the_hand_written_closures(self, tag, c0, d0):
        family = FamilyId(FamilyTag.parse(tag), c0, d0)
        # general constants take the two extreme q only
        for q in (GRID_Q if (c0, d0) == (1.0, 1.0) else (0.5, 2.0)):
            for p in (GRID_P if family.two_parameter else (None,)):
                params = DeformationParams(q=q, p=p)
                cs, pair = coefficients(family, params), gh_pair(family, params)
                made = {"f": cs.f, "g": cs.g, "h": cs.h, "k": cs.k, "G": pair.G, "H": pair.H}
                leads, brackets = _leads(family, params), _brackets(params)
                for name, reference in _hand_written(family, params).items():
                    # G and H fold their bracket into a lead power that is not a normal
                    # double, and where only the bracket power overflows (TestBracketOverflow)
                    levels = [n for n in LEVELS if name not in leads or _normal(leads[name], n)
                              and not _folds_an_overflow(leads[name], brackets[name], family, n)]
                    assert _outcomes(made[name], levels) == _outcomes(reference, levels), (
                        name, q, p)


def _hand_written(family, params):
    """The bodies of the six closures coefficients and gh_pair wrote out before the makers."""
    x, q = params.power_base, params.q
    pref = params.p if family.two_parameter else 1.0
    ef, _, _, ek = PRINTED_EXPONENTS[family.tag.letter]
    s = ef + ek
    c0, d0 = family.c0, family.d0
    cd = c0 * d0
    return {
        "f": lambda n: x ** (ef * n) / SQRT2,
        "g": lambda n: c0 * x ** ((ek + 1) * n) / SQRT2,
        "h": lambda n: d0 * x ** ((ef + 1) * n) / SQRT2,
        "k": lambda n: x ** (ek * n) / SQRT2,
        "G": lambda n: 0.5 * q * x ** (s * n - ef) * (1.0 + cd * x ** (2 * n - 2)),
        "H": lambda n: 0.5 * pref * x ** (s * n + ek) * (1.0 + cd * x ** (2 * n + 2)),
    }


def _leads(family, params):
    """The lead powers x**(s n + a) of the hand-written G and H."""
    x = params.power_base
    ef, _, _, ek = PRINTED_EXPONENTS[family.tag.letter]
    return {"G": lambda n: x ** ((ef + ek) * n - ef), "H": lambda n: x ** ((ef + ek) * n + ek)}


def _brackets(params):
    """The bracket powers x**(2n + b) of the hand-written G and H."""
    x = params.power_base
    return {"G": lambda n: x ** (2 * n - 2), "H": lambda n: x ** (2 * n + 2)}


def _folds_an_overflow(lead, bracket, family, n):
    """Only the bracket power overflows at level n, and c0 d0 is a normal double: the fold."""
    try:
        lead(n)
    except OverflowError:
        return False
    try:
        bracket(n)
    except OverflowError:
        return abs(family.c0 * family.d0) >= MIN_NORMAL
    return False


def _normal(lead, n):
    """lead(n) is a normal double, or raises as the closures then do."""
    try:
        return lead(n) >= MIN_NORMAL
    except OverflowError:
        return True


def _outcomes(fn, levels):
    """The bits of fn(n) per level, and the levels where it raises with the exception type."""
    values, raised = [], []
    for n in levels:
        try:
            values.append(fn(n))
        except ArithmeticError as exc:
            values.append(0.0)
            raised.append((n, type(exc)))
    return array("d", values).tobytes(), raised


class TestOperatorFold:
    """G and H where the lead power x**(s n + a) is not a normal double but the value is."""

    @pytest.mark.parametrize("tag,c0,d0", CONSTANTS)
    def test_matches_the_exact_product(self, tag, c0, d0):
        family = FamilyId(FamilyTag.parse(tag), c0, d0)
        checked = 0
        for q in GRID_Q + (1.1,):
            for p in (GRID_P + (0.9,) if family.two_parameter else (None,)):
                params = DeformationParams(q=q, p=p)
                pair, leads = gh_pair(family, params), _leads(family, params)
                exact = _exact_operators(family, params)
                for name in ("G", "H"):
                    for n in LEVELS:
                        if _normal(leads[name], n):
                            continue
                        true, power = exact[name](n)
                        # the fold forms the power x**(s n + a) x**(2n + b) as one
                        if MIN_NORMAL <= abs(true) <= MAX and power <= MAX:
                            assert rel_err(getattr(pair, name)(n), float(true)) <= 1e-14, (
                                name, q, p, n)
                            checked += 1
        if family.tag.letter == "B" and c0 * d0:  # the window B and Bt have at a base above 1
            assert checked

    def test_bt_reads_the_true_value_at_level_999(self):
        params = DeformationParams(q=1.1, p=0.9)
        exact = float(_exact_operators(FamilyId.parse("Bt"), params)["H"](999)[0])
        assert rel_err(gh_pair("Bt", params).H(999), exact) <= 1e-15  # 3.4e-175; it read 0.0

    def test_bt_recipe_matches_the_closed_form_at_level_930(self):
        # H(927) read 0.0, so the recipe raised SingularRecipeError on a regular algebra
        params = DeformationParams(q=1.1, p=0.9)
        pair = gh_pair("Bt", params)
        assert rel_err(phi_from_gh(pair.G, pair.H, 930), phi_closed("Bt", params, 930)) <= 1e-14


class TestBracketOverflow:
    """G and H where the lead power is a normal double but x**(2n + b) overflows."""

    @pytest.mark.parametrize("tag,c0,d0", CONSTANTS)
    def test_matches_the_exact_product(self, tag, c0, d0):
        family = FamilyId(FamilyTag.parse(tag), c0, d0)
        checked = 0
        for q in GRID_Q + (1.1,):
            for p in (GRID_P + (0.9,) if family.two_parameter else (None,)):
                params = DeformationParams(q=q, p=p)
                pair, exact = gh_pair(family, params), _exact_operators(family, params)
                leads, brackets = _leads(family, params), _brackets(params)
                for name in ("G", "H"):
                    for n in LEVELS:
                        if not _folds_an_overflow(leads[name], brackets[name], family, n):
                            continue
                        true, power = exact[name](n)
                        if MIN_NORMAL <= abs(true) <= MAX and power <= MAX:
                            assert rel_err(getattr(pair, name)(n), float(true)) <= 1e-14, (
                                name, q, p, n)
                            checked += 1
        if family.tag.letter in "CD" and c0 * d0:  # the window C and D have at a base above 1
            assert checked

    @pytest.mark.parametrize("tag,n,value", [("D", 600, 2.0**597), ("C", 513, 2.0**513)])
    def test_an_in_range_value_is_returned(self, tag, n, value):
        # both raised OverflowError from x**(2n - 2), at a lead power 2**-601 and 2**-511
        family = FamilyId.parse(tag)
        G = gh_pair(family, 2.0).G
        assert G(n) == value
        exact = float(_exact_operators(family, DeformationParams(q=2.0))["G"](n)[0])
        assert rel_err(G(n), exact) <= 1e-15

    @pytest.mark.parametrize("c0", [0.0, 1e-310])
    def test_a_cd_below_the_normal_range_keeps_raising(self, c0):
        # cd + 1/y would carry the error of a subnormal 1/y, or all of it at cd = 0
        with pytest.raises(OverflowError):
            gh_pair(FamilyId(FamilyTag.D, c0, 1.0), 2.0).G(600)


def _exact_operators(family, params):
    """G and H at the float base x to 40 digits, c x**(s n + a) (1 + cd x**(2n + b)) / 2,
    each with its power x**(s n + a + 2n + b)."""
    context = decimal.Context(prec=40, Emin=-10**6, Emax=10**6)
    x, q = Decimal(params.power_base), Decimal(params.q)
    pref = Decimal(params.p) if family.two_parameter else Decimal(1)
    ef, _, _, ek = PRINTED_EXPONENTS[family.tag.letter]
    s, cd = ef + ek, Decimal(family.c0) * Decimal(family.d0)

    def operator(c, a, b):
        def exact(n):
            with decimal.localcontext(context):
                return (c * x ** (s * n + a) * (1 + cd * x ** (2 * n + b)) / 2,
                        x ** ((s + 2) * n + a + b))
        return exact

    return {"G": operator(q, -ef, -2), "H": operator(pref, ek, 2)}


class TestGeneralGH:
    def test_reproduces_family_a(self):
        q = 1.015
        cs = coefficients("A", q)
        general = general_gh(cs.f, cs.k, 1.0, 1.0, q)
        printed = gh_pair("A", q)
        for n in range(0, 40):
            assert rel_err(general.H(n), printed.H(n)) <= 1e-14
            assert rel_err(general.G(n), printed.G(n)) <= 1e-14

    def test_exposes_ratio_kernel(self):
        cs = coefficients("A", 1.2)
        general = general_gh(cs.f, cs.k, 1.0, 1.0, 1.2)
        for n in (1, 3, 6):
            assert general.R(n) == cs.f(n - 1) * cs.k(n)

    def test_degenerate_constants(self):
        # c0 d0 = 0 strips the bracket: G = q R(n), H = R(n+1)
        q = 1.1
        cs = coefficients("A", q)
        general = general_gh(cs.f, cs.k, 0.0, 0.0, q)
        for n in (1, 2, 9):
            assert general.G(n) == pytest.approx(q * general.R(n), rel=1e-15)
            assert general.H(n) == pytest.approx(general.R(n + 1), rel=1e-15)

    def test_constant_kernel_at_q_one_gives_equal_pair(self):
        f = k = lambda n: 0.5
        general = general_gh(f, k, 1.0, 1.0, 1.0)
        for n in range(0, 10):
            assert general.H(n) == general.G(n)

    def test_general_constants_route_through_gh_pair(self):
        fam = FamilyId(FamilyTag.A, c0=2.0, d0=0.5)
        pair = gh_pair(fam, 1.1)
        cs = coefficients(fam, 1.1)
        expected = general_gh(cs.f, cs.k, 2.0, 0.5, 1.1)
        for n in range(0, 10):
            assert pair.H(n) == pytest.approx(expected.H(n), rel=1e-14)
            assert pair.G(n) == pytest.approx(expected.G(n), rel=1e-14)

    def test_zero_coefficient_rejected(self):
        general = general_gh(lambda n: 0.0, lambda n: 1.0, 1.0, 1.0, 1.1)
        with pytest.raises(DomainError):
            general.H(2)


class TestRatioRecursions:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", (0.9, 1.015, 1.5))
    def test_builtins_satisfy_recursions(self, family, q):
        params = params_for(family, q)
        cs = coefficients(family, params)
        assert verify_ratio_recursions(cs, params, 50) <= 1e-12

    def test_stated_examples(self):
        assert verify_ratio_recursions(coefficients("A", 1.015), 1.015, 50) <= 1e-12
        assert verify_ratio_recursions(coefficients("D", 0.9), 0.9, 50) <= 1e-12

    def test_undeformed_residual_is_zero(self):
        for family in ONE_PARAM:
            assert verify_ratio_recursions(coefficients(family, 1.0), 1.0, 30) == 0.0

    def test_needs_two_levels(self):
        with pytest.raises(DomainError):
            verify_ratio_recursions(coefficients("A", 1.1), 1.1, 1)

    @pytest.mark.parametrize("n_max,message", [
        (2.5, "n_max must be an integer, got 2.5"),
        (-1, "n_max must be >= 2, got -1"),
        (1, "n_max must be >= 2, got 1"),
        # not numbers: `n_max < 2` raised a raw TypeError before the integer check
        ("5", "n_max must be an integer, got '5'"),
        (None, "n_max must be an integer, got None"),
    ])
    def test_bad_n_max_is_domain_error(self, n_max, message):
        with pytest.raises(DomainError, match=rf"^{message}$"):
            verify_ratio_recursions(coefficients("A", 1.1), 1.1, n_max)

    @pytest.mark.parametrize("params,message", [
        (-1.0, "finite q > 0, got -1.0"),
        (math.nan, "finite q > 0, got nan"),
        (1j, "real q, got 1j"),
        (DeformationParams(q=1.1, p=math.inf), "finite p > 0, got inf"),
    ])
    def test_bad_params_are_domain_error(self, params, message):
        with pytest.raises(DomainError, match=rf"^verify_ratio_recursions requires {message}$"):
            verify_ratio_recursions(coefficients("A", 1.1), params, 5)

    @pytest.mark.parametrize("family,q,n_max", [("A", 0.5, 600), ("B", 0.5, 600), ("C", 2.0, 1200)])
    def test_out_of_range_names_the_level(self, family, q, n_max):
        cs = coefficients(family, q)
        with pytest.raises(DomainError, match="double-precision range at level"):
            verify_ratio_recursions(cs, q, n_max)
        assert _outcome(verify_ratio_recursions, cs, q, n_max) == _outcome(
            _per_level_ratio_recursions, cs, q, n_max)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", (0.5, 0.9, 1.1, 2.0))
    @pytest.mark.parametrize("n_max", (2, 30, 300, 1000))
    def test_matches_the_per_level_loop(self, family, q, n_max):
        params = params_for(family, q)
        cs = coefficients(family, params)
        assert _outcome(verify_ratio_recursions, cs, params, n_max) == _outcome(
            _per_level_ratio_recursions, cs, params.power_base, n_max)

    @pytest.mark.parametrize("broken", [
        {"f": lambda n: 2.0 ** (1100 if n == 7 else 0)},  # OverflowError, read by levels 6 and 7
        {"g": lambda n: 2.0 ** (1100 if n == 7 else 0)},  # read by levels 7 and 8
        {"h": lambda n: 0.0 if n == 4 else 1.0},  # an underflowed divisor at level 4
        {"k": lambda n: math.inf if n == 5 else 1.0},  # a silent inf, read by levels 5 and 6
    ])
    def test_failing_entries_fail_the_first_level_that_reads_them(self, broken):
        cs = coefficients("A", 1.0)
        cs = CoefficientSet(**{"f": cs.f, "g": cs.g, "h": cs.h, "k": cs.k} | broken)
        for n_max in (2, 5, 6, 10):
            assert _outcome(verify_ratio_recursions, cs, 1.0, n_max) == _outcome(
                _per_level_ratio_recursions, cs, 1.0, n_max)

    def test_only_read_level_of_each_coefficient_overflows(self):
        # k(n) = 2**(2n)/sqrt(2) at D, q = 0.5: k(512) overflows, but level 511
        # reads k(510) and k(511) only
        cs = coefficients("D", 0.5)
        with pytest.raises(OverflowError):
            cs.k(512)
        assert verify_ratio_recursions(cs, 0.5, 511) == _per_level_ratio_recursions(cs, 0.5, 511)

    @pytest.mark.parametrize("n_max", (2, 30, 300))
    def test_each_coefficient_is_evaluated_once_per_level(self, n_max):
        cs = coefficients("Bt", DeformationParams(q=1.1, p=0.9))
        calls = {name: [] for name in "fghk"}

        def counted(name):
            fn = getattr(cs, name)
            return lambda n: calls[name].append(n) or fn(n)

        counting = CoefficientSet(**{name: counted(name) for name in "fghk"})
        verify_ratio_recursions(counting, DeformationParams(q=1.1, p=0.9), n_max)
        # level n reads f and h at n and n + 1, g and k at n - 1 and n
        assert calls["f"] == calls["h"] == list(range(0, n_max + 2))
        assert calls["g"] == calls["k"] == list(range(-1, n_max + 1))

    def test_detects_broken_quadruple(self):
        cs = coefficients("A", 1.1)
        broken = type(cs)(f=cs.f, g=cs.g, h=lambda n: 1.0 + n, k=cs.k)
        assert verify_ratio_recursions(broken, 1.1, 10) > 1e-3


def _per_level_ratio_recursions(cs, x, n_max):
    """The residual loop of verify_ratio_recursions as it was before its level tables."""
    worst = 0.0
    for n in range(0, n_max + 1):
        try:
            up = abs(cs.h(n + 1) / cs.h(n) - x * cs.f(n + 1) / cs.f(n))
            down = abs(cs.k(n - 1) / cs.k(n) - x * cs.g(n - 1) / cs.g(n))
        except (OverflowError, ZeroDivisionError):
            up = down = math.inf
        if not up + down < math.inf:
            raise DomainError(f"ratio recursions leave the double-precision range at level {n}")
        worst = max(worst, up + down)
    return worst


def _outcome(fn, *args):
    """("returns", value) or ("raises", message), compared with == between two routes."""
    try:
        return "returns", fn(*args)
    except DomainError as exc:
        return "raises", str(exc)


def _tabled_ratio_recursions(cs, params, n_max):
    """verify_ratio_recursions as it was with four partial level tables and a stop index."""
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max!r}")
    params = DeformationParams(q=params) if not isinstance(params, DeformationParams) else params
    params.require_real_positive("verify_ratio_recursions")
    x = params.power_base
    f = prefix_table(cs.f, range(0, n_max + 2))
    h = prefix_table(cs.h, range(0, n_max + 2))
    g = prefix_table(cs.g, range(-1, n_max + 1))
    k = prefix_table(cs.k, range(-1, n_max + 1))
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


def _bits(fn, *args):
    """("returns", the float's hex) or ("raises", type, message): equal bits compare equal."""
    try:
        return "returns", float.hex(fn(*args))
    except DomainError as exc:
        return "raises", type(exc), str(exc)


def _broken(name, level, bad):
    """The printed A quadruple at q = 1.1 with coefficient `name` made `bad` at `level`."""
    cs = coefficients("A", 1.1)
    good = getattr(cs, name)

    def fn(n):
        if n != level:
            return good(n)
        if isinstance(bad, float):
            return bad
        raise bad("at the chosen level")

    return CoefficientSet(**{"f": cs.f, "g": cs.g, "h": cs.h, "k": cs.k, name: fn})


BAD_ENTRIES = (math.inf, -math.inf, math.nan, 0.0, OverflowError, ZeroDivisionError)


class TestRatioWalkReference:
    """The one-walk verify_ratio_recursions against its tabled form: equal bits, equal
    refusals, except that a failing f(0), h(0), g(-1) or k(-1) is refused at level 0, the
    first level that reads it, where the tables said level -1."""

    @staticmethod
    def _expected(cs, params, n_max):
        outcome = _bits(_tabled_ratio_recursions, cs, params, n_max)
        if outcome[0] == "raises" and outcome[2].endswith("at level -1"):
            return "raises", DomainError, outcome[2].replace("level -1", "level 0")
        return outcome

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", (1e-200, 0.5, 0.9, 1.0, 1.1, 2.0, 1e200))
    @pytest.mark.parametrize("n_max", (3, 4, 30, 300))
    def test_builtin_quadruples(self, family, q, n_max):
        params = params_for(family, q)
        cs = coefficients(family, params)
        assert _bits(verify_ratio_recursions, cs, params, n_max) == self._expected(
            cs, params, n_max)

    @pytest.mark.parametrize("name", "fghk")
    @pytest.mark.parametrize("bad", BAD_ENTRIES, ids=repr)
    def test_one_bad_entry(self, name, bad):
        for n_max in (3, 4, 30):
            for level in (-1, 0, 1, 2, n_max - 1, n_max, n_max + 1):
                cs = _broken(name, level, bad)
                assert _bits(verify_ratio_recursions, cs, 1.1, n_max) == self._expected(
                    cs, 1.1, n_max), (name, level, n_max)

    def test_two_bad_entries(self):
        # the first level that reads either is refused, whichever coefficient it is in
        rng = random.Random(17)
        for _ in range(300):
            n_max = rng.choice((3, 4, 30))
            cs = coefficients("A", 1.1)
            entries = {"f": cs.f, "g": cs.g, "h": cs.h, "k": cs.k}
            for name in rng.sample("fghk", 2):
                level, bad = rng.randint(-1, n_max + 1), rng.choice(BAD_ENTRIES)
                entries[name] = getattr(_broken(name, level, bad), name)
            cs = CoefficientSet(**entries)
            assert _bits(verify_ratio_recursions, cs, 1.1, n_max) == self._expected(
                cs, 1.1, n_max)

    def test_user_quadruples(self):
        # random positive coefficient tables, constant and not, at both parameter counts
        rng = random.Random(5)
        for _ in range(200):
            table = {name: [rng.lognormvariate(0, 3) for _ in range(40)] for name in "fghk"}
            cs = CoefficientSet(**{name: (lambda t: lambda n: t[n + 1])(t)
                                   for name, t in table.items()})
            params = rng.choice((0.7, 1.3, DeformationParams(q=1.1, p=0.9)))
            n_max = rng.choice((3, 4, 30))
            assert _bits(verify_ratio_recursions, cs, params, n_max) == self._expected(
                cs, params, n_max)

    @pytest.mark.parametrize("family,q", [
        *((family, q) for family in ("A", "C", "At", "Ct") for q in (1e-300, 1e-200)),
        *((family, q) for family in ("B", "D", "Bt", "Dt") for q in (1e200, 1e300)),
    ])
    def test_an_overflowing_first_entry_is_refused_at_level_0(self, family, q):
        # g(-1) = x**-(e_k + 1)/sqrt(2) overflows here; the tables said level -1
        params = params_for(family, q)
        with pytest.raises(DomainError, match=r"^ratio recursions leave the "
                                              r"double-precision range at level 0$"):
            verify_ratio_recursions(coefficients(family, params), params, 5)

    @pytest.mark.parametrize("name,level", [("f", 0), ("h", 0), ("g", -1), ("k", -1)])
    def test_each_first_entry_names_level_0(self, name, level):
        cs = _broken(name, level, OverflowError)
        with pytest.raises(DomainError, match=r"^ratio recursions leave the "
                                              r"double-precision range at level 0$"):
            verify_ratio_recursions(cs, 1.1, 5)

    def test_the_walk_stops_at_the_first_bad_level(self):
        # the tables read every level before refusing; the walk reads up to the refusal
        cs = coefficients("A", 1.1)
        calls = []
        counted = CoefficientSet(f=lambda n: calls.append(n) or cs.f(n),
                                 g=cs.g, h=_broken("h", 6, math.nan).h, k=cs.k)
        with pytest.raises(DomainError, match="at level 5$"):
            verify_ratio_recursions(counted, 1.1, 300)
        assert calls == list(range(0, 7))


class TestRatioKernelDiagnostic:
    def test_constant_kernel(self):
        assert ratio_kernel_constancy(lambda n: 1.0, lambda n: 1.0) == 0.0

    def test_drifting_kernel(self):
        cs = coefficients("A", 1.2)
        assert ratio_kernel_constancy(cs.f, cs.k, 10) > 0.1

    @pytest.mark.parametrize("n_max,message", [
        (-1, "n_max must be >= 0, got -1"),
        (2.5, "n_max must be an integer, got 2.5"),
    ])
    def test_bad_n_max_is_domain_error(self, n_max, message):
        with pytest.raises(DomainError, match=rf"^{message}$"):
            ratio_kernel_constancy(lambda n: 1.0, lambda n: 1.0, n_max)
