import cmath
import dataclasses
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
    StructureFunction,
    SymmetrizedDSF,
    build_rep,
    find_metric,
    hermiticity_defect,
    phi_closed,
    phi_symmetrized,
    phi_symmetrized_qp,
    symmetrized_routes,
)
from defosc import symmetry

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

    @pytest.mark.parametrize("evaluate", [phi_symmetrized, symmetrized_routes])
    def test_factorized_overflow_names_the_level(self, evaluate):
        # the averaged route is still finite at n = 600; x**(3n - 1) is not
        with pytest.raises(DomainError, match=r"^factorized symmetrized phi\(600\) leaves the "
                                              r"double-precision range at q = 1.5$"):
            evaluate("A", 1.5, 600)

    @pytest.mark.parametrize("evaluate,n", [
        (lambda n: phi_symmetrized("A", 1e-300, n), 2),
        (lambda n: phi_symmetrized("D", 1e-300, n), 33),
        (lambda n: symmetrized_routes("D", 1e-300, n), 33),
        (lambda n: SymmetrizedDSF("D", DeformationParams(q=1e-300))(n), 33),
        (lambda n: StructureFunction.symmetrized("D", 1e-300)(n), 33),
    ], ids=["phi_symmetrized_A", "phi_symmetrized_D", "symmetrized_routes", "SymmetrizedDSF",
            "StructureFunction"])
    def test_underflowed_complex_power_names_the_level(self, evaluate, n):
        # complex x**(1 - n) divides by an underflowed 0: this raised ZeroDivisionError
        with pytest.raises(DomainError, match=rf"^phi\({n}\) leaves the double-precision range "
                                              r"at base \(1e-300\+0j\)$"):
            evaluate(n)

    def test_route_disagreement_is_a_domain_error(self):
        # near q = 1 the two routes cancel differently (accuracy is a separate matter);
        # this raised a bare ArithmeticError
        with pytest.raises(DomainError, match=r"^symmetrized evaluations disagree at n = 10: "):
            phi_symmetrized("A", 1.0000001, 10)

    def test_stray_imaginary_part_is_a_domain_error(self, monkeypatch):
        monkeypatch.setattr(symmetry, "symmetrized_routes", lambda base, q, n: (2 + 1j, 2 + 1j))
        with pytest.raises(DomainError, match=r"^symmetrized value has a stray imaginary part "
                                              r"at n = 4: \(2\+1j\)$"):
            phi_symmetrized("A", 1.1, 4)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            phi_symmetrized("A", 0, 3)
        with pytest.raises(DomainError):
            phi_symmetrized("A", -1.2, 3)
        with pytest.raises(DomainError):
            phi_symmetrized("A", 2j, 3)  # off the unit circle
        with pytest.raises(DomainError):
            phi_symmetrized("At", 1.1, 3)  # two-parameter base

    @pytest.mark.parametrize("evaluate", [
        lambda n: phi_symmetrized("A", 1.1, n),
        lambda n: symmetrized_routes("A", 1.1, n),
        lambda n: phi_symmetrized_qp("At", 1.1, 0.9, n),
        lambda n: SymmetrizedDSF("A", DeformationParams(q=1.1))(n),
        lambda n: SymmetrizedDSF("At", DeformationParams(q=1.1, p=0.9))(n),
        lambda n: StructureFunction.symmetrized("A", 1.1)(n),
    ], ids=["phi_symmetrized", "symmetrized_routes", "phi_symmetrized_qp", "SymmetrizedDSF",
            "SymmetrizedDSF_qp", "StructureFunction"])
    @pytest.mark.parametrize("n,message", [
        (2.5, "level must be an integer, got 2.5"),
        (True, "level must be an integer, got True"),
        (-1, "level must be >= 0, got -1"),
    ])
    def test_levels_take_the_shared_check(self, evaluate, n, message):
        with pytest.raises(DomainError, match=rf"^{message}$"):
            evaluate(n)


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

    def test_underflowing_term_is_harmless(self):
        # at base q/p = 2 the forward term underflows to 0; the swapped term,
        # phi at base p/q = 1/2 divided by q, is about 4e180
        swapped = phi_closed("At", DeformationParams(q=1.0, p=2.0), 300)
        assert phi_symmetrized_qp("At", 2.0, 1.0, 300) == 0.5 * swapped
        assert SymmetrizedDSF("At", DeformationParams(q=2.0, p=1.0))(300) == 0.5 * swapped

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            phi_symmetrized_qp("A", 1.2, 1.1, 3)  # one-parameter base
        with pytest.raises(DomainError):
            phi_symmetrized_qp("At", -1.0, 1.1, 3)

    @pytest.mark.parametrize("q,p,shown", [
        (math.inf, 1.0, "q > 0, got inf"), (1.0, math.inf, "p > 0, got inf"),
        (math.nan, 1.0, "q > 0, got nan"), (complex(math.inf, 0), 1.0, "q > 0, got inf"),
    ], ids=["inf-1.0", "1.0-inf", "nan-1.0", "(inf+0j)-1.0"])
    def test_real_parameters_must_be_finite(self, q, p, shown):
        with pytest.raises(DomainError, match=rf"^phi_symmetrized_qp requires finite {shown}$"):
            phi_symmetrized_qp("At", q, p, 4)

    @pytest.mark.parametrize("q,p,name,shown", [
        (1e-300, 1e300, "q/p", "0.0"),
        (1e300, 1e-300, "q/p", "inf"),
        (1e-300, 1e10, "p/q", "inf"),  # q/p = 1e-310 is subnormal but nonzero
        (1e-300 + 1e-300j, 1e300 - 1e300j, "q/p", "0j"),
    ])
    def test_parameter_ratios_must_stay_in_range(self, q, p, name, shown):
        # these raised ZeroDivisionError in the closed form at base q/p or p/q
        message = rf"^phi_symmetrized_qp requires finite {name} != 0, got {shown}$"
        with pytest.raises(DomainError, match=message):
            phi_symmetrized_qp("At", q, p, 5)
        with pytest.raises(DomainError, match=message):
            SymmetrizedDSF("Bt", DeformationParams(q=q, p=p))(5)

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

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
    def test_bad_tol_is_domain_error(self, tol):
        with pytest.raises(DomainError, match=rf"^tol must be positive, got {tol!r}$"):
            find_metric(build_rep("A", 1.1, 8), "X", tol)

    def test_infinite_tol_is_domain_error(self):
        with pytest.raises(DomainError, match=r"^tol must be finite, got inf$"):
            find_metric(build_rep("A", 1.1, 8), "X", math.inf)

    def test_degenerate_operator_rejected(self):
        rep = build_rep("A", 1.1, 8)
        severed = rep.x_sub.copy()
        severed[0] = 0.0  # sever the ladder link X[1, 0]
        rep = dataclasses.replace(rep, x_sub=severed)
        with pytest.raises(DegenerateOperatorError):
            find_metric(rep, "X")
