import math

import pytest

from defosc import (
    DeformationParams,
    DomainError,
    FamilyId,
    FamilyTag,
    coefficients,
    general_gh,
    gh_pair,
    ratio_kernel_constancy,
    shift_power,
    verify_ratio_recursions,
)

from conftest import ALL_FAMILIES, ONE_PARAM, TWO_PARAM, rel_err

SQRT2 = math.sqrt(2.0)

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

    @pytest.mark.parametrize("family,q,n_max", [("A", 0.5, 600), ("B", 0.5, 600), ("C", 2.0, 1200)])
    def test_out_of_range_names_the_level(self, family, q, n_max):
        with pytest.raises(DomainError, match="double-precision range at level"):
            verify_ratio_recursions(coefficients(family, q), q, n_max)

    def test_detects_broken_quadruple(self):
        cs = coefficients("A", 1.1)
        broken = type(cs)(f=cs.f, g=cs.g, h=lambda n: 1.0 + n, k=cs.k)
        assert verify_ratio_recursions(broken, 1.1, 10) > 1e-3


class TestRatioKernelDiagnostic:
    def test_constant_kernel(self):
        assert ratio_kernel_constancy(lambda n: 1.0, lambda n: 1.0) == 0.0

    def test_drifting_kernel(self):
        cs = coefficients("A", 1.2)
        assert ratio_kernel_constancy(cs.f, cs.k, 10) > 0.1
