import math

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
    gh_pair,
    phi_closed,
    phi_from_gh,
    phi_ratio_check,
)

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
    ])
    def test_aliases(self, text, expected):
        assert FamilyTag.parse(text).value == expected

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            FamilyTag.parse("E")

    def test_family_id_defaults(self):
        fam = FamilyId.parse("B")
        assert (fam.c0, fam.d0) == (1.0, 1.0)
        assert fam.index == 2
        assert not fam.two_parameter


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

    def test_rejects_negative_level(self):
        with pytest.raises(DomainError):
            phi_closed("A", 1.1, -2)

    @pytest.mark.parametrize("q", (math.inf, math.nan))
    def test_rejects_non_finite_parameters(self, q):
        with pytest.raises(DomainError, match="finite q"):
            phi_closed("A", q, 5)
        with pytest.raises(DomainError, match="finite p"):
            phi_closed("At", DeformationParams(q=1.1, p=q), 5)

    @pytest.mark.parametrize("family,q,n", [("A", 0.5, 3000), ("A", 0.5, 600), ("B", 2.0, 3000)])
    def test_out_of_range_names_the_level(self, family, q, n):
        with pytest.raises(DomainError, match=rf"phi\({n}\) leaves the double-precision range"):
            phi_closed(family, q, n)


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
