import cmath
import dataclasses
import math
import random
import re
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
    build_rep,
    find_metric,
    hermiticity_defect,
    phi_closed,
    phi_symmetrized,
    phi_symmetrized_qp,
    symmetrized_routes,
)
from defosc import dsf, symmetry
from defosc.dsf import _check_tol

from conftest import ALL_FAMILIES, ONE_PARAM, TWO_PARAM

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
        (lambda n: StructureFunction.symmetrized("D", DeformationParams(q=1e-300))(n), 33),
        (lambda n: StructureFunction.symmetrized("D", 1e-300)(n), 33),
    ], ids=["phi_symmetrized_A", "phi_symmetrized_D", "symmetrized_routes",
            "StructureFunction_params", "StructureFunction"])
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
        monkeypatch.setattr(dsf, "symmetrized_routes", lambda base, q, n: (2 + 1j, 2 + 1j))
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
        lambda n: StructureFunction.symmetrized("A", DeformationParams(q=1.1))(n),
        lambda n: StructureFunction.symmetrized("At", DeformationParams(q=1.1, p=0.9))(n),
        lambda n: StructureFunction.symmetrized("A", 1.1)(n),
    ], ids=["phi_symmetrized", "symmetrized_routes", "phi_symmetrized_qp",
            "StructureFunction_params", "StructureFunction_qp", "StructureFunction"])
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
        assert StructureFunction.symmetrized("At", DeformationParams(q=2.0, p=1.0))(300) \
            == 0.5 * swapped

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
            StructureFunction.symmetrized("Bt", DeformationParams(q=q, p=p))(5)

    def test_wrapper_dispatch(self):
        one = StructureFunction.symmetrized("A", DeformationParams(q=1.1))
        two = StructureFunction.symmetrized("At", DeformationParams(q=1.2, p=0.9))
        assert one(4) == phi_symmetrized("A", 1.1, 4)
        assert two(4) == phi_symmetrized_qp("At", 1.2, 0.9, 4)
        with pytest.raises(DomainError):
            StructureFunction.symmetrized("A", DeformationParams(q=1.2, p=0.9))


def _outcome(call):
    """call()'s value, or the type and message of the DomainError it raises."""
    try:
        return call()
    except DomainError as exc:
        return type(exc), str(exc)


UNIT, CONJUGATE = cmath.exp(1j * math.pi / 5), 1.3 * cmath.exp(0.4j)


class TestSymmetrizedStructureFunction:
    def test_params_are_taken_as_given(self):
        # this wrapped the params a second time: "phi_symmetrized requires real q, got
        # DeformationParams(q=1.1, p=None)"
        sf = StructureFunction.symmetrized("A", DeformationParams(q=1.1))
        assert sf == StructureFunction.symmetrized("A", 1.1)
        assert sf(3) == phi_symmetrized("A", 1.1, 3)

    @pytest.mark.parametrize("family,params,message", [
        ("A", -1.1, "phi_symmetrized requires finite q > 0, got -1.1"),
        ("At", 1.1, "unit-circle symmetrization applies to one-parameter families"),
        ("A", DeformationParams(q=1.1, p=0.9), "phi_symmetrized_qp applies to two-parameter "
                                                "families"),
        ("A", 2j, "complex q must lie on the unit circle, got |q| = 2.0"),
        ("Bt", DeformationParams(q=1e300, p=1e-300), "phi_symmetrized_qp requires finite "
                                                     "q/p != 0, got inf"),
    ])
    def test_a_bad_family_or_parameter_is_refused_at_construction(self, family, params,
                                                                  message):
        # the first two constructed and failed only when called
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            StructureFunction.symmetrized(family, params)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q,p", [
        (0.9, 1.2), (1.1, 0.9), (1.0, 1.0), (UNIT, UNIT.conjugate()),
        (CONJUGATE, CONJUGATE.conjugate()),
    ], ids=["0.9-1.2", "1.1-0.9", "1-1", "unit-circle", "conjugate-pair"])
    def test_dispatch_matches_the_functions(self, family, q, p):
        if family in ONE_PARAM:
            sf = _outcome(lambda: StructureFunction.symmetrized(family, q))
            expected = [_outcome(lambda: phi_symmetrized(family, q, n)) for n in range(20)]
        else:
            sf = _outcome(lambda: StructureFunction.symmetrized(family, DeformationParams(q, p)))
            expected = [_outcome(lambda: phi_symmetrized_qp(family, q, p, n)) for n in range(20)]
        if isinstance(sf, tuple):  # refused at construction: as level 0 is
            assert sf == expected[0]
        else:
            assert [_outcome(lambda: sf(n)) for n in range(20)] == expected


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


def _pairwise_find_metric(rep, target="X", tol=1e-10):
    """find_metric as it was: both entrywise ratios per link, their gap tracked, three tests."""
    _check_tol(tol)
    rep.params.require_real_positive("find_metric")
    sub_band, sup_band = symmetry._target_bands(rep, target)
    eta = np.empty(rep.dim)
    eta[0] = level = 1.0
    worst_gap, worst_idx = 0.0, 0
    for n, (sub, sup) in enumerate(zip(sub_band.tolist(), sup_band.tolist())):
        if sub == 0 or sup == 0:
            raise DegenerateOperatorError(
                f"{target} has a vanishing off-diagonal entry at level {n}"
            )
        if sup.conjugate() == sub:  # entry pair already Hermitian: ratio exactly 1
            eta[n + 1] = level
            continue
        r_up = sup.conjugate() / sub
        r_down = sup / sub.conjugate()
        gap = abs(r_up - r_down)
        if gap > worst_gap:
            worst_gap, worst_idx = gap, n
        if gap > tol * max(1.0, abs(r_up)):
            raise NoMetricError("entrywise metric conditions are inconsistent", worst_idx)
        if abs(r_up.imag) > tol * max(1.0, abs(r_up)) or r_up.real <= 0:
            raise NoMetricError(f"metric ratio at level {n} is not positive: {r_up!r}", n)
        level *= r_up.real
        if not 0.0 < level < float("inf"):
            raise NoMetricError("metric entries left the double-precision range", n + 1)
        eta[n + 1] = level

    links = rep.trusted - 1
    sub, sup = sub_band[:links], sup_band[:links]
    lower, upper = eta[:links], eta[1:links + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.maximum(np.abs((upper * sub) / lower - sup.conj()),
                         np.abs((lower * sup) / upper - sub.conj()))
    residual = float(gap.max())
    if not residual <= tol:
        raise NoMetricError("assembled metric fails the similarity relation", int(gap.argmax()))
    return symmetry.MetricDiagonal(eta=eta, residual=residual)


def _metric_outcome(fn, rep, target, tol):
    """("returns", eta bytes, residual hex) or ("raises", type, message, index)."""
    try:
        metric = fn(rep, target, tol)
    except (DomainError, NoMetricError, DegenerateOperatorError) as exc:
        return "raises", type(exc), str(exc), getattr(exc, "index", None)
    return "returns", metric.eta.tobytes(), float.hex(metric.residual)


def _expected_metric_outcome(rep, target, tol):
    """The pairwise outcome, except that its "inconsistent" and "not positive" refusals
    become the one ratio refusal, named at the level where the pairwise loop refused: the
    first link that fails one of its tests (its "inconsistent" index was the level of the
    largest gap so far, which can be an earlier link)."""
    outcome = _metric_outcome(_pairwise_find_metric, rep, target, tol)
    if outcome[0] == "returns" or not (outcome[2].startswith("entrywise")
                                       or " is not positive: " in outcome[2]):
        return outcome
    sub_band, sup_band = symmetry._target_bands(rep, target)
    for n, (sub, sup) in enumerate(zip(sub_band.tolist(), sup_band.tolist())):
        r = sup.conjugate() / sub
        if sup.conjugate() != sub and (abs(r - sup / sub.conjugate()) > tol * max(1.0, abs(r))
                                       or r.real <= 0 or abs(r.imag) > tol * max(1.0, abs(r))):
            message = f"metric ratio at level {n} is not real and positive: {r!r}"
            return "raises", NoMetricError, f"{message} (worst index {n})", n
    raise AssertionError("the pairwise loop refused a ratio that no level has")


NAMES = ("x_sub", "x_sup", "p_sub", "p_sup")
NON_FINITE = [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan), (1.0, math.nan),
              (math.inf, 0.0), (0.0, -math.inf), (math.inf, math.inf), (-math.inf, 1.0)]


def _random_entry(rng, kind):
    size, sign = rng.uniform(0.1, 2.0), rng.choice((-1, 1))
    return {"complex": complex(rng.gauss(0, 1), rng.gauss(0, 1)),
            "real": complex(size, 0.0),
            "imaginary": complex(0.0, sign * size),
            "negative": complex(sign * size, 0.0)}[kind]


def _hand_built(rep, rng, kind):
    """rep with X's and P's off-diagonals replaced: random entries of one kind, or the
    rep's own real positive ratios with one link made non-finite or given an imaginary
    part near the tolerance, on either side of it."""
    if kind in ("complex", "real", "imaginary", "negative"):
        return dataclasses.replace(rep, **{name: np.array(
            [_random_entry(rng, kind) for _ in range(rep.dim - 1)]) for name in NAMES})
    bands = {name: getattr(rep, name).copy() for name in NAMES}
    level = rng.randrange(rep.dim - 1)
    for name in rng.sample(NAMES, rng.randint(1, 2)):
        if kind == "noisy":
            bands[name][level] += complex(0.0, rng.choice((-1, 1)) * 10.0 ** rng.uniform(-12, -8))
        else:
            bands[name][level] = complex(*rng.choice(NON_FINITE))
    return dataclasses.replace(rep, **bands)


class TestPairwiseReference:
    """find_metric's one ratio per link against the pairwise loop it replaced: equal eta and
    residual bits and equal refusals, except that the "inconsistent" and "not positive"
    refusals are now the one "not real and positive" refusal at the level that failed."""

    @pytest.mark.parametrize("family", ONE_PARAM + TWO_PARAM)
    @pytest.mark.parametrize("q", (1e-200, 0.5, 0.9, 1.0, 1.1, 2.0, 1e200))
    @pytest.mark.parametrize("dim", (3, 4, 30, 300))
    def test_built_reps(self, family, q, dim):
        params = DeformationParams(q=q, p=1.1) if family in TWO_PARAM else DeformationParams(q=q)
        try:
            rep = build_rep(family, params, dim)
        except DomainError:
            return
        for target in ("X", "P"):
            for tol in (1e-10, 1e-300):
                assert _metric_outcome(find_metric, rep, target, tol) == _expected_metric_outcome(
                    rep, target, tol)

    @pytest.mark.parametrize("kind", ("complex", "real", "imaginary", "negative", "non-finite",
                                      "noisy"))
    def test_hand_built_reps(self, kind):
        rng = random.Random(kind)
        for dim in (3, 4, 30):
            rep = build_rep("B", 1.1, dim)
            for _ in range(40):
                built = _hand_built(rep, rng, kind)
                for target in ("X", "P"):
                    for tol in (1e-10, 1e-6):
                        assert _metric_outcome(find_metric, built, target, tol) == \
                            _expected_metric_outcome(built, target, tol)


class TestOneRatioPerLink:
    """Refusals that the built reps never reach."""

    @staticmethod
    def _with_link(level, sub, sup):
        rep = build_rep("A", 1.1, 8)
        x_sub, x_sup = rep.x_sub.copy(), rep.x_sup.copy()
        x_sub[level], x_sup[level] = sub, sup
        return dataclasses.replace(rep, x_sub=x_sub, x_sup=x_sup)

    def test_a_non_real_ratio_is_refused_at_its_level(self):
        rep = self._with_link(3, 1.0 + 0.0j, 1.0 + 1e-3j)  # r = conj(sup)/sub = 1 - 1e-3 i
        with pytest.raises(NoMetricError) as err:
            find_metric(rep, "X")
        assert str(err.value) == ("metric ratio at level 3 is not real and positive: "
                                  "(1-0.001j) (worst index 3)")
        assert err.value.index == 3

    def test_a_non_positive_ratio_is_refused_at_its_level(self):
        rep = self._with_link(5, 2.0 + 0.0j, -1.0 + 0.0j)  # r = -1/2
        with pytest.raises(NoMetricError) as err:
            find_metric(rep, "X")
        assert str(err.value) == ("metric ratio at level 5 is not real and positive: "
                                  "(-0.5+0j) (worst index 5)")
        assert err.value.index == 5

    def test_the_gap_is_twice_the_imaginary_part(self):
        # 2 |Im r| = 1.6e-10 > tol = 1e-10 >= |Im r|: the pairwise gap refused this too
        rep = self._with_link(2, 1.0 + 0.0j, complex(1.0, -8e-11))
        with pytest.raises(NoMetricError, match=r"^metric ratio at level 2 is not real") as err:
            find_metric(rep, "X")
        assert err.value.index == 2
        rep = self._with_link(2, 1.0 + 0.0j, complex(1.0, -4e-11))
        assert find_metric(rep, "X", 1e-6).residual <= 1e-6

    def test_the_similarity_relation_refuses_at_a_tiny_tol(self):
        rep = build_rep("A", 1.1, 30)
        with pytest.raises(NoMetricError, match=r"^assembled metric fails the similarity "
                                                r"relation") as err:
            find_metric(rep, "X", 1e-300)
        assert 0 <= err.value.index < rep.trusted - 1
