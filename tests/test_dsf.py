import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from defosc import (
    DeformationParams,
    DomainError,
    FamilyId,
    FamilyTag,
    SingularRecipeError,
    StructureFunction,
    build_rep,
    coefficients,
    degeneracy_equation,
    energy,
    gh_pair,
    ground_state_table,
    phi_closed,
    phi_from_gh,
    phi_ratio_check,
    verify_gh_relation,
    verify_heisenberg,
    verify_ladder,
)
from defosc import dsf

from conftest import ALL_FAMILIES, ONE_PARAM, TWO_PARAM, assert_close, rel_err

Q_GRID = (0.8, 0.99, 1.015, 1.1, 1.5)
P_GRID = (1.0, 1.1, 1.3)


def params_for(tag: str, q: float, p: float = 1.1) -> DeformationParams:
    if FamilyTag.parse(tag).two_parameter:
        return DeformationParams(q=q, p=p)
    return DeformationParams(q=q)


class TestFamilyParsing:
    @pytest.mark.parametrize("text,expected", [
        ("A", "A"), ("b", "B"), ("At", "At"), ("a~", "At"),
        ("Ã", "At"), ("C̃", "Ct"), ("dt", "Dt"),
        # around the spelling table: a miss, upper case, and each tilde form
        (" at ", "At"), ("AT", "At"), ("A~", "At"), ("A\u0303", "At"), ("B\u0303", "Bt"),
    ])
    def test_aliases(self, text, expected):
        assert FamilyTag.parse(text).value == expected

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            FamilyTag.parse("E")

    @pytest.mark.parametrize("value", [[1], None])
    def test_unknown_non_string(self, value):
        # an unhashable value must not reach the spelling table
        with pytest.raises(DomainError, match="unknown family tag"):
            FamilyTag.parse(value)

    def test_spelling_table_agrees_with_the_rule(self):
        assert {tag.value for tag in dsf._SPELLINGS.values()} == {t.value for t in FamilyTag}
        for spelling, tag in dsf._SPELLINGS.items():
            assert dsf._match_spelling(spelling) is tag
            assert FamilyTag.parse(spelling) is tag

    def test_canonical_spellings_skip_normalisation(self, monkeypatch):
        calls = []
        normalize = dsf.unicodedata.normalize

        def counting(form, text):
            calls.append(text)
            return normalize(form, text)

        monkeypatch.setattr(dsf.unicodedata, "normalize", counting)
        for tag in FamilyTag:
            for spelling in (tag.name, tag.value, tag.value.lower()):
                assert FamilyTag.parse(spelling) is tag
        assert calls == []
        FamilyTag.parse(" at ")  # a miss takes the rule, which the counter sees
        assert calls == ["at"]

    @pytest.mark.parametrize("tag,letter,two,index", [
        (FamilyTag.A, "A", False, 1), (FamilyTag.D, "D", False, 4),
        (FamilyTag.BT, "B", True, 2), (FamilyTag.CT, "C", True, 3),
    ])
    def test_tag_attributes_are_plain(self, tag, letter, two, index):
        assert {k: vars(tag)[k] for k in ("letter", "two_parameter", "index")} == {
            "letter": letter, "two_parameter": two, "index": index}

    def test_family_id_defaults(self):
        fam = FamilyId.parse("B")
        assert (fam.c0, fam.d0) == (1.0, 1.0)
        assert fam.index == 2
        assert not fam.two_parameter

    def test_printed_family_ids_are_shared(self):
        assert FamilyId.parse("a") is FamilyId.parse(FamilyTag.A) is FamilyId.parse(" A ")
        assert FamilyId.parse("Ã") is FamilyId.parse("At") is dsf._PRINTED[FamilyTag.AT]
        for tag in FamilyTag:
            assert FamilyId.parse(tag.value) is dsf._PRINTED[tag]
            assert dsf._PRINTED[tag] == FamilyId(tag)
            assert hash(dsf._PRINTED[tag]) == hash(FamilyId(tag))
            assert FamilyId.parse(tag) != FamilyId(tag, c0=2.0)

    @pytest.mark.parametrize("custom", [
        FamilyId(FamilyTag.A, c0=2.0), FamilyId(FamilyTag.A, d0=0.5), FamilyId(FamilyTag.BT),
    ])
    def test_a_family_id_parses_to_itself(self, custom):
        assert FamilyId.parse(custom) is custom


class TestDeformationParams:
    def test_rejects_zero_p(self):
        with pytest.raises(DomainError):
            DeformationParams(q=1.2, p=0)

    def test_derived_ratio(self):
        params = DeformationParams(q=1.2, p=1.1)
        assert params.Q == pytest.approx(1.2 / 1.1)
        assert DeformationParams(q=1.2).Q is None

    def test_core_domain_rejects_complex(self):
        with pytest.raises(DomainError):
            phi_closed("A", DeformationParams(q=1j), 3)

    @pytest.mark.parametrize("q", [0.0, -2.0])
    def test_core_domain_rejects_nonpositive(self, q):
        with pytest.raises(DomainError):
            phi_closed("A", q, 3)


# every public entry that validates (family, params): value and context word
PARAM_CHECKS = [
    (lambda fam, params: phi_closed(fam, params, 3), "phi_closed"),
    (lambda fam, params: energy(fam, params, 3), "phi_closed"),
    (lambda fam, params: coefficients(fam, params).f(3), "coefficients"),
    (lambda fam, params: gh_pair(fam, params).G(3), "gh_pair"),
]


class TestParameterChecks:
    """q and p around the float fast path of require_real_positive."""

    @pytest.mark.parametrize("bad,shown", [
        (math.nan, "nan"), (math.inf, "inf"), (-1.0, "-1.0"), (0.0, "0.0"),
    ])
    @pytest.mark.parametrize("call,context", PARAM_CHECKS)
    def test_rejects_non_finite_or_nonpositive(self, call, context, bad, shown):
        with pytest.raises(DomainError, match=rf"^{context} requires finite q > 0, got {shown}$"):
            call("B", bad)
        if bad == 0.0:
            with pytest.raises(DomainError, match=r"^p = 0 is not admissible"):
                call("Bt", DeformationParams(q=1.1, p=bad))
        else:
            with pytest.raises(DomainError, match=rf"^{context} requires finite p > 0, got {shown}$"):
                call("Bt", DeformationParams(q=1.1, p=bad))

    @pytest.mark.parametrize("call,context", PARAM_CHECKS)
    def test_rejects_complex(self, call, context):
        with pytest.raises(DomainError, match=rf"^{context} requires real q, got 1j$"):
            call("B", 1j)
        with pytest.raises(DomainError, match=rf"^{context} requires real p, got 1j$"):
            call("Bt", DeformationParams(q=1.1, p=1j))

    @pytest.mark.parametrize("call,context", PARAM_CHECKS)
    def test_rejects_complex_with_zero_imaginary_part(self, call, context):
        with pytest.raises(DomainError, match=rf"^{context} requires real q, got \(1.5\+0j\)$"):
            call("B", 1.5 + 0j)
        with pytest.raises(DomainError, match=rf"^{context} requires real p, got \(1.2\+0j\)$"):
            call("Bt", DeformationParams(q=1.1, p=1.2 + 0j))

    @pytest.mark.parametrize("call,shown", [
        (lambda: phi_closed("A", 1.5 + 0j, 3), "q, got (1.5+0j)"),
        (lambda: build_rep("A", 1.2 + 0j, 5), "q, got (1.2+0j)"),
        (lambda: energy("B", 1.1 + 0j, 2), "q, got (1.1+0j)"),
        (lambda: degeneracy_equation("A", 1.5 + 0j, 3, 0), "q, got (1.5+0j)"),
        (lambda: phi_closed("At", DeformationParams(q=1.5, p=1.1 + 0j), 3), "p, got (1.1+0j)"),
    ])
    def test_complex_with_zero_imaginary_part_is_refused_before_the_kernel(self, call, shown):
        # these reached dsf._phi_at as a complex base and raised TypeError there
        with pytest.raises(DomainError, match=rf"^phi_closed requires real {re.escape(shown)}$"):
            call()

    @pytest.mark.parametrize("call,context", PARAM_CHECKS)
    def test_float_subclass_takes_the_full_check(self, call, context):
        # np.float64 is not type float: DeformationParams keeps the float it holds
        assert call("B", np.float64(1.1)) == call("B", 1.1)
        two = DeformationParams(q=np.float64(1.2), p=np.float64(1.1))
        assert call("Bt", two) == call("Bt", DeformationParams(q=1.2, p=1.1))


def _numpy_outcome(call):
    """("returns", type, repr) or ("raises", type, message): equal only when bit-identical."""
    try:
        value = call()
    except (ArithmeticError, DomainError) as exc:  # a warning raised as an error propagates
        return "raises", type(exc), str(exc)
    return "returns", type(value), repr(value)


class TestNumpyScalarParameters:
    """A numpy float q or p is stored as the Python float it holds, so it takes the float paths."""

    @pytest.mark.parametrize("scalar", [np.float64, np.float32, np.float16])
    def test_stored_as_the_float_it_holds(self, scalar):
        params = DeformationParams(q=scalar(1.1), p=scalar(0.9))
        assert (type(params.q), type(params.p)) == (float, float)
        assert (params.q, params.p) == (float(scalar(1.1)), float(scalar(0.9)))

    def test_integers_and_complex_values_are_kept(self):
        assert type(DeformationParams(q=2).q) is int
        assert type(DeformationParams(q=np.int64(2)).q) is np.int64
        assert type(DeformationParams(q=np.complex128(1j)).q) is np.complex128
        assert DeformationParams(q=1.1, p=None).p is None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call,message", [
        (lambda q: ground_state_table(q(1e200)),
         r"ground_state_table\(1e\+200\) leaves the double-precision range"),
        (lambda q: phi_closed("A", q(0.5), 600),
         r"phi\(600\) leaves the double-precision range at base 0.5"),
        (lambda q: build_rep("A", q(0.5), 600),
         r"phi\(512\) leaves the double-precision range at base 0.5"),
    ])
    def test_out_of_range_is_a_domain_error_without_warnings(self, call, message):
        # np.float64 overflowed with a RuntimeWarning (an error here) and went on with inf
        for scalar in (float, np.float64):
            with pytest.raises(DomainError, match=f"^{message}$"):
                call(scalar)

    @pytest.mark.filterwarnings("error")
    def test_coefficient_overflow_is_that_of_the_float(self):
        # at the parent np.float64 returned np.float64(inf) here
        assert _numpy_outcome(lambda: coefficients("B", np.float64(0.5)).f(600)) == \
            _numpy_outcome(lambda: coefficients("B", 0.5).f(600))

    @pytest.mark.filterwarnings("error")
    def test_single_precision_is_widened_once(self):
        value = phi_closed("A", np.float32(1.1), 5)
        assert type(value) is float
        assert value == phi_closed("A", float(np.float32(1.1)), 5) != phi_closed("A", 1.1, 5)
        assert type(degeneracy_equation("A", np.float32(1.09), 10, 0)) is float

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q,p", [(0.5, 0.9), (0.9, 1.3), (1.1, 0.9), (2.0, 1.3)])
    def test_values_are_bit_identical_to_the_float(self, family, q, p):
        two = FamilyTag.parse(family).two_parameter

        def outcomes(scalar):
            params = DeformationParams(q=scalar(q), p=scalar(p) if two else None)
            cs, pair = coefficients(family, params), gh_pair(family, params)
            calls = [lambda n=n: phi_closed(family, params, n) for n in (0, 1, 7, 60, 300)]
            calls += [lambda n=n: energy(family, params, n) for n in (0, 7, 300)]
            calls += [lambda fn=fn, n=n: fn(n)
                      for fn in (cs.f, cs.g, cs.h, cs.k) for n in (-1, 0, 7, 300)]
            calls += [lambda fn=fn, n=n: fn(n) for fn in (pair.G, pair.H) for n in (0, 7, 300)]
            calls.append(lambda: phi_from_gh(pair.G, pair.H, 40))
            calls.append(lambda: [report.residual for report in _verified(
                build_rep(family, params, 30))])
            if not two:
                calls.append(lambda: degeneracy_equation(family, scalar(q), 10, 0))
            return [_numpy_outcome(call) for call in calls]

        assert outcomes(np.float64) == outcomes(float)


def _verified(rep):
    return verify_heisenberg(rep), verify_gh_relation(rep), verify_ladder(rep)


class TestPhiClosed:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_vanishes_at_zero(self, family):
        assert phi_closed(family, params_for(family, 1.37), 0) == 0.0

    def test_undeformed_limit_is_identity(self):
        for n in (0, 1, 7, 41):
            assert phi_closed("A", 1.0, n) == float(n)

    def test_first_level_family_a(self):
        # 2/(q (1 + q**2)) at q = 2
        assert phi_closed("A", 2.0, 1) == pytest.approx(0.2, rel=1e-15)

    @pytest.mark.parametrize("family", ONE_PARAM)
    @pytest.mark.parametrize("q", Q_GRID)
    def test_positive(self, family, q):
        for n in range(1, 61):
            assert phi_closed(family, q, n) > 0.0

    @pytest.mark.parametrize("family", TWO_PARAM)
    @pytest.mark.parametrize("q", Q_GRID)
    def test_p_equal_one_reduces_to_one_parameter(self, family, q):
        reduced = FamilyTag.parse(family).letter
        for n in range(0, 61):
            two = phi_closed(family, DeformationParams(q=q, p=1.0), n)
            one = phi_closed(reduced, q, n)
            assert rel_err(two, one) <= 1e-12

    @pytest.mark.parametrize("family", TWO_PARAM)
    def test_p_equal_q_scales_the_identity(self, family):
        q = 1.7
        for n in range(0, 20):
            assert phi_closed(family, DeformationParams(q=q, p=q), n) == n / q

    def test_arity_mismatch(self):
        with pytest.raises(DomainError):
            phi_closed("A", DeformationParams(q=1.1, p=1.2), 3)
        with pytest.raises(DomainError):
            phi_closed("At", 1.1, 3)

    def test_general_constants_have_no_closed_form(self):
        fam = FamilyId(FamilyTag.A, c0=2.0)
        with pytest.raises(DomainError):
            phi_closed(fam, 1.1, 3)

    @pytest.mark.parametrize("fam", [
        FamilyId(FamilyTag.A, c0=2.0), FamilyId(FamilyTag.C, d0=0.5),
        FamilyId(FamilyTag.BT, c0=1.5, d0=1.5),
    ])
    def test_custom_constants_are_refused_after_the_parameter_checks(self, fam):
        params = DeformationParams(q=1.1, p=1.2 if fam.two_parameter else None)
        with pytest.raises(DomainError, match=r"^phi_closed covers the printed families"):
            phi_closed(fam, params, 3)
        with pytest.raises(DomainError, match=r"^level must be >= 0, got -1$"):
            phi_closed(fam, params, -1)
        with pytest.raises(DomainError, match=r"^phi_closed requires finite q > 0, got -1.0$"):
            phi_closed(fam, DeformationParams(q=-1.0, p=params.p), 3)

    def test_rejects_negative_level(self):
        with pytest.raises(DomainError):
            phi_closed("A", 1.1, -2)

    @pytest.mark.parametrize("n,message", [
        (True, "level must be an integer, got True"),
        (-1, "level must be >= 0, got -1"),
        (np.int8(-1), "level must be >= 0, got -1"),
        (3.0, "level must be an integer, got 3.0"),
    ])
    def test_level_refusals_around_the_int_fast_path(self, n, message):
        with pytest.raises(DomainError, match=rf"^{message}$"):
            phi_closed("A", 1.1, n)

    def test_numpy_integer_level(self):
        assert phi_closed("A", 1.1, np.int64(3)) == phi_closed("A", 1.1, 3)

    @pytest.mark.parametrize("q", (math.inf, math.nan))
    def test_rejects_non_finite_parameters(self, q):
        with pytest.raises(DomainError, match="finite q"):
            phi_closed("A", q, 5)
        with pytest.raises(DomainError, match="finite p"):
            phi_closed("At", DeformationParams(q=1.1, p=q), 5)

    @pytest.mark.parametrize("family,q,n", [
        ("A", 0.5, 3000), ("A", 0.5, 600), ("B", 2.0, 3000),
        ("A", 1.5, 439), ("A", 1.5, 600),  # below the smallest normal double, then 0.0
    ])
    def test_out_of_range_names_the_level(self, family, q, n):
        with pytest.raises(DomainError, match=rf"phi\({n}\) leaves the double-precision range"):
            phi_closed(family, q, n)

    def test_the_kernel_alone_keeps_an_underflowing_value(self):
        # the min-normal refusal belongs to phi_closed's kernel, not to
        # _phi_power_base, whose symmetrized callers average an underflowing term
        assert 0.0 <= dsf._phi_power_base("A", 1.5, 439) < 2.0**-1022
        with pytest.raises(DomainError, match=r"^phi\(439\) leaves the double-precision range"):
            dsf._phi_at("A", 1.5, 439)
        assert dsf._phi_at("A", 1.5, 438) == phi_closed("A", 1.5, 438)

    @pytest.mark.parametrize("family,q,n", [
        # (1 + x**(2n-2)) (1 + x**(2n)) overflows from n = 439
        ("A", "3/2", 438), ("C", "3/2", 439), ("D", "3/2", 439),
        ("C", "3/2", 900),  # the numerator overflows
        ("B", "1/2", 216),  # x**(5n-3) underflows to 0.0
        ("B", "3/5", 285),  # x**(5n-3) is subnormal
    ])
    def test_intermediate_out_of_range_keeps_a_normal_phi(self, family, q, n):
        # phi(n) is a normal double although a power on the way is not; the
        # exact rational closed form is the oracle
        a, b = {"A": (-1, 0), "B": (5, -3), "C": (2, -3), "D": (2, 0)}[family]
        x = Fraction(q)
        exact = (2 * x ** (a * n + b) * (1 - x**n) / (1 - x) * (1 + x ** (1 - n))
                 / ((1 + x ** (2 * n - 2)) * (1 + x ** (2 * n))))
        assert rel_err(phi_closed(family, float(x), n), float(exact)) <= 1e-13


class TestPhiFromGH:
    def test_undeformed_oscillator(self):
        assert phi_from_gh(lambda n: 1.0, lambda n: 1.0, 5) == 5.0

    def test_constant_q_weights(self):
        # G = H = q gives phi(n) = n/q
        assert phi_from_gh(lambda n: 2.0, lambda n: 2.0, 4) == 2.0

    def test_matches_closed_form_family_a(self):
        params = DeformationParams(q=1.015)
        pair = gh_pair("A", params)
        reference = phi_closed("A", params, 10)
        assert rel_err(phi_from_gh(pair.G, pair.H, 10), reference) <= 1e-12

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", (0.9, 1.015, 1.4))
    def test_matches_closed_form_everywhere(self, family, q):
        params = params_for(family, q)
        pair = gh_pair(family, params)
        for n in range(0, 61):
            assert rel_err(phi_from_gh(pair.G, pair.H, n),
                           phi_closed(family, params, n)) <= 1e-10

    def test_zero_start(self):
        assert phi_from_gh(lambda n: 1.0, lambda n: 1.0, 0) == 0.0

    def test_reads_no_g_at_zero(self):
        # G(0) only ever multiplies phi(0) = 0; G(n) = 1/n must not be called there
        assert phi_from_gh(lambda n: 1.0 / n, lambda n: 1.0, 3) == 2.0

    def test_singular_names_the_index(self):
        # G(k) = 0 is regular for the recurrence: phi = 1, 2, 1, 2, 3
        assert phi_from_gh(lambda n: 0.0 if n == 2 else 1.0, lambda n: 1.0, 5) == 3.0
        with pytest.raises(SingularRecipeError) as err:
            phi_from_gh(lambda n: 1.0, lambda n: 0.0 if n == 3 else 1.0, 5)
        assert err.value.index == 3
        assert err.value.which == "H"
        with pytest.raises(SingularRecipeError) as err:
            phi_from_gh(lambda n: 1.0, lambda n: 0.0, 1)
        assert err.value.index == 0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", (0.9, 1.1))
    def test_matches_closed_form_past_level_200(self, family, q):
        params = params_for(family, q)
        pair = gh_pair(family, params)
        assert rel_err(phi_from_gh(pair.G, pair.H, 400), phi_closed(family, params, 400)) <= 1e-12

    def test_overflow_names_the_level(self):
        pair = gh_pair("A", 0.5)
        with pytest.raises(DomainError, match=r"phi\(\d+\) leaves the double-precision range"):
            phi_from_gh(pair.G, pair.H, 1200)

    def test_operator_overflow_names_the_function_and_level(self):
        # H(n) holds x**(-2n) at base 0.5, which raises OverflowError from n = 256
        pair = gh_pair("B", 0.5)
        with pytest.raises(DomainError, match=r"^H\(256\) leaves the double-precision range$"):
            phi_from_gh(pair.G, pair.H, 400)
        with pytest.raises(DomainError, match=r"^G\(2\) leaves the double-precision range$"):
            phi_from_gh(lambda n: 2.0 ** (600 * n), lambda n: 1.0, 5)

    @given(st.sampled_from(ALL_FAMILIES),
           st.floats(min_value=0.85, max_value=1.25),
           st.integers(min_value=0, max_value=40))
    def test_defining_identity(self, family, q, n):
        # H(n) phi(n+1) - G(n) phi(n) = 1 is what the reconstruction must solve
        params = params_for(family, q)
        pair = gh_pair(family, params)
        lhs = pair.H(n) * phi_from_gh(pair.G, pair.H, n + 1) \
            - pair.G(n) * phi_from_gh(pair.G, pair.H, n)
        assert lhs == pytest.approx(1.0, rel=1e-9)


class TestPhiRatio:
    def test_family_b_first_level(self):
        assert phi_ratio_check("B", "A", 1.1, 1) == pytest.approx(1.1**3, rel=1e-12)

    def test_family_c_first_level_is_unity(self):
        for q in Q_GRID:
            assert phi_ratio_check("C", "A", q, 1) == pytest.approx(1.0, rel=1e-12)

    def test_two_parameter_ratio(self):
        params = DeformationParams(q=1.2, p=1.1)
        expected = (1.2 / 1.1) ** 6
        assert phi_ratio_check("Dt", "At", params, 2) == pytest.approx(expected, rel=1e-12)

    def test_rejects_level_zero(self):
        with pytest.raises(DomainError):
            phi_ratio_check("B", "A", 1.1, 0)

    def test_rejects_mixed_arity(self):
        with pytest.raises(DomainError):
            phi_ratio_check("Bt", "A", DeformationParams(q=1.1, p=1.2), 3)

    @pytest.mark.parametrize("family,exponent", [
        ("B", lambda n: 3 * (2 * n - 1)),
        ("C", lambda n: 3 * (n - 1)),
        ("D", lambda n: 3 * n),
    ])
    @pytest.mark.parametrize("q", Q_GRID)
    def test_power_laws(self, family, exponent, q):
        for n in range(1, 61):
            assert rel_err(phi_ratio_check(family, "A", q, n), q ** exponent(n)) <= 1e-12


class TestStructureFunction:
    def test_closed_and_recipe_agree(self):
        params = DeformationParams(q=1.05)
        closed = StructureFunction.closed_form("C", params)
        recipe = StructureFunction.from_gh("C", params)
        assert closed.kind == "closed-form"
        assert recipe.kind == "recipe"
        for n in range(0, 30):
            assert rel_err(recipe(n), closed(n)) <= 1e-10

    def test_symmetrized_kind(self):
        sf = StructureFunction.symmetrized("A", 1.1)
        assert sf.kind == "symmetrized"
        assert sf(0) == 0.0
        assert sf(4) == pytest.approx(sf(4))  # evaluates real

    def test_vanishes_at_zero_for_all_kinds(self):
        params = DeformationParams(q=1.2)
        assert StructureFunction.closed_form("B", params)(0) == 0.0
        assert StructureFunction.from_gh("B", params)(0) == 0.0
