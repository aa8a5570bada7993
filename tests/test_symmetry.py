import cmath
import math
import warnings

import numpy as np
import pytest

from defosc import (
    DegenerateOperatorError,
    DeformationParams,
    DomainError,
    NoMetricError,
    PoleError,
    SymmetrizedDSF,
    build_rep,
    find_metric,
    hermiticity_defect,
    phi_symmetrized,
    phi_symmetrized_qp,
    symmetrized_routes,
)

from conftest import ONE_PARAM, TWO_PARAM

THETAS = (math.pi / 12, math.pi / 7, math.pi / 5, 2 * math.pi / 5)
# at theta = pi/12 the closed forms have genuine poles at these levels
PI12_POLES = {6, 7, 18, 19, 30}


def unit_circle_levels(theta):
    for n in range(0, 31):
        if math.isclose(theta, math.pi / 12) and n in PI12_POLES:
            continue
        yield n


class TestSymmetrizedForms:
    def test_vanishes_at_zero(self):
        assert phi_symmetrized("A", 1.3, 0) == 0.0
        assert phi_symmetrized("A", cmath.exp(0.4j), 0) == 0.0

    def test_undeformed(self):
        assert phi_symmetrized("A", 1.0, 6) == 6.0

    @pytest.mark.parametrize("family", ONE_PARAM)
    @pytest.mark.parametrize("q", (0.9, 1.1, 1.5))
    def test_routes_agree_real(self, family, q):
        for n in range(0, 31):
            avg, fact = symmetrized_routes(family, q, n)
            assert abs(avg - fact) <= 1e-10 * max(1.0, abs(fact))

    @pytest.mark.parametrize("family", ONE_PARAM)
    @pytest.mark.parametrize("theta", THETAS)
    def test_routes_agree_unit_circle(self, family, theta):
        q = cmath.exp(1j * theta)
        for n in unit_circle_levels(theta):
            avg, fact = symmetrized_routes(family, q, n)
            assert abs(avg - fact) <= 1e-10 * max(1.0, abs(fact))

    @pytest.mark.parametrize("theta", THETAS)
    def test_real_on_unit_circle(self, theta):
        q = cmath.exp(1j * theta)
        for n in unit_circle_levels(theta):
            avg, _ = symmetrized_routes("A", q, n)
            assert abs(avg.imag) <= 1e-10
            value = phi_symmetrized("A", q, n)
            assert isinstance(value, float)

    def test_specific_unit_circle_value(self):
        q = cmath.exp(1j * math.pi / 7)
        avg, fact = symmetrized_routes("A", q, 3)
        assert abs(avg - fact) <= 1e-10
        assert phi_symmetrized("A", q, 3) == pytest.approx(avg.real)

    @pytest.mark.parametrize("q", (0.8, 1.25, cmath.exp(1j * math.pi / 5)))
    def test_inversion_invariance(self, q):
        for n in range(0, 25):
            direct = phi_symmetrized("B", q, n)
            inverted = phi_symmetrized("B", 1 / q, n)
            assert abs(direct - inverted) <= 1e-12 * max(1.0, abs(direct))

    def test_pole_is_reported(self):
        q = cmath.exp(1j * math.pi / 12)
        with pytest.raises(PoleError) as err:
            phi_symmetrized("A", q, 6)
        assert err.value.n == 6
        assert err.value.theta == pytest.approx(math.pi / 12)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            phi_symmetrized("A", 0, 3)
        with pytest.raises(DomainError):
            phi_symmetrized("A", -1.2, 3)
        with pytest.raises(DomainError):
            phi_symmetrized("A", 2j, 3)  # off the unit circle
        with pytest.raises(DomainError):
            phi_symmetrized("At", 1.1, 3)  # two-parameter base


class TestTwoParameterSymmetrization:
    @pytest.mark.parametrize("family", TWO_PARAM)
    def test_exchange_symmetry_exact(self, family):
        for n in range(0, 20):
            forward = phi_symmetrized_qp(family, 1.2, 0.9, n)
            backward = phi_symmetrized_qp(family, 0.9, 1.2, n)
            assert forward == backward

    def test_conjugate_parameters_give_real_values(self):
        q = 1.3 * cmath.exp(1j * 0.4)
        p = q.conjugate()
        for n in range(0, 15):
            value = phi_symmetrized_qp("At", q, p, n)
            assert abs(value.imag) <= 1e-12 * max(1.0, abs(value))

    def test_real_inputs_give_floats(self):
        value = phi_symmetrized_qp("Bt", 1.2, 1.1, 5)
        assert isinstance(value, float)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            phi_symmetrized_qp("A", 1.2, 1.1, 3)  # one-parameter base
        with pytest.raises(DomainError):
            phi_symmetrized_qp("At", -1.0, 1.1, 3)

    def test_wrapper_dispatch(self):
        one = SymmetrizedDSF("A", DeformationParams(q=1.1))
        two = SymmetrizedDSF("At", DeformationParams(q=1.2, p=0.9))
        assert one(4) == phi_symmetrized("A", 1.1, 4)
        assert two(4) == phi_symmetrized_qp("At", 1.2, 0.9, 4)
        with pytest.raises(DomainError):
            SymmetrizedDSF("A", DeformationParams(q=1.2, p=0.9))


class TestHermiticityDefect:
    def test_zero_iff_undeformed(self):
        assert hermiticity_defect(build_rep("A", 1.0, 10), "X") == 0.0
        assert hermiticity_defect(build_rep("A", 1.0, 10), "P") == 0.0
        assert hermiticity_defect(build_rep("A", 1.015, 10), "X") > 0.0

    def test_position_momentum_cannot_both_be_hermitian(self):
        for family in ONE_PARAM:
            rep = build_rep(family, 1.015, 12)
            assert max(hermiticity_defect(rep, "X"), hermiticity_defect(rep, "P")) > 0.0

    def test_unknown_target(self):
        with pytest.raises(DomainError):
            hermiticity_defect(build_rep("A", 1.1, 5), "Y")


class TestFindMetric:
    def test_identity_metric_when_hermitian(self):
        metric = find_metric(build_rep("A", 1.0, 12), "X")
        assert np.all(metric.eta == 1.0)

    def test_family_a_ratio_recursion(self):
        q = 1.1
        metric = find_metric(build_rep("A", q, 20), "X")
        ratios = metric.eta[1:] / metric.eta[:-1]
        expected = [q ** (-n - 2) for n in range(19)]
        assert np.allclose(ratios, expected, rtol=1e-12)
        assert metric.residual <= 1e-10

    def test_momentum_metric_family_c(self):
        metric = find_metric(build_rep("C", 1.2, 20), "P")
        assert np.all(metric.eta > 0)
        assert metric.residual <= 1e-10

    @pytest.mark.parametrize("family", ONE_PARAM)
    @pytest.mark.parametrize("q", (0.9, 1.015, 1.2))
    @pytest.mark.parametrize("target", ("X", "P"))
    def test_metric_exists_for_all_families(self, family, q, target):
        rep = build_rep(family, q, 16)
        metric = find_metric(rep, target)
        assert metric.eta[0] == 1.0
        assert np.all(metric.eta > 0)
        assert metric.residual <= 1e-10
        if hermiticity_defect(rep, target) == 0.0:
            assert np.all(metric.eta == 1.0)
        else:
            assert np.any(metric.eta != 1.0)

    def test_similarity_relation_holds(self):
        rep = build_rep("B", 1.1, 15)
        metric = find_metric(rep, "X")
        eta = metric.eta
        similar = (eta[:, None] * rep.X) / eta[None, :]
        t = rep.trusted
        assert np.abs(similar - rep.X.conj().T)[:t, :t].max() <= 1e-10

    def test_underflowing_metric_names_the_first_bad_level(self):
        rep = build_rep("C", 1.1, 100)
        with pytest.raises(NoMetricError, match="double-precision range") as err:
            find_metric(rep, "X")
        # eta(n+1)/eta(n) = conj(X[n, n+1]) / X[n+1, n]; the first level where
        # the running product leaves (0, inf) is the one reported
        eta, level = 1.0, None
        for n in range(rep.dim - 1):
            eta *= (np.conj(rep.X[n, n + 1]) / rep.X[n + 1, n]).real
            if not 0.0 < eta < math.inf:
                level = n + 1
                break
        assert err.value.index == level

    @pytest.mark.parametrize("family,q,p", [
        *((family, q, None) for family in ONE_PARAM for q in (0.9, 1.0, 1.1)),
        *((family, q, p) for family in TWO_PARAM for q in (0.9, 1.0, 1.1) for p in (0.9, 1.0, 1.1)),
    ])
    @pytest.mark.parametrize("target", ("X", "P"))
    def test_finite_residual_or_no_metric_at_dim_100(self, family, q, p, target):
        rep = build_rep(family, DeformationParams(q=q, p=p), 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                metric = find_metric(rep, target)
            except NoMetricError:
                return
        assert metric.residual <= 1e-10
        assert np.all(np.isfinite(metric.eta)) and np.all(metric.eta > 0)

    def test_degenerate_operator_rejected(self):
        rep = build_rep("A", 1.1, 8)
        rep.X[1, 0] = 0.0  # sever one ladder link
        with pytest.raises(DegenerateOperatorError):
            find_metric(rep, "X")
