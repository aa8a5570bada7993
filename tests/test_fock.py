import dataclasses
import math
import re
import time

import numpy as np
import pytest

from defosc import (
    DegenerateOperatorError,
    DeformationParams,
    DomainError,
    FamilyId,
    FamilyTag,
    GHPair,
    MetricError,
    build_rep,
    coefficients,
    find_metric,
    gh_pair,
    hermiticity_defect,
    phi_closed,
    verify_gh_relation,
    verify_heisenberg,
    verify_ladder,
)
from defosc import dsf, fock
from defosc.fock import MAX_DIM, _Bands, _split_residual

from conftest import ALL_FAMILIES, ONE_PARAM, TWO_PARAM

SQRT2 = math.sqrt(2.0)


def params_for(tag, q, p=1.1):
    if FamilyTag.parse(tag).two_parameter:
        return DeformationParams(q=q, p=p)
    return DeformationParams(q=q)


class TestBuildRep:
    def test_ladder_matrix_structure(self):
        rep = build_rep("A", 1.0, 4)
        assert np.allclose(np.diag(rep.a_plus, -1), [1.0, math.sqrt(2), math.sqrt(3)])
        assert np.count_nonzero(rep.a_plus) == 3
        assert np.allclose(rep.a_minus, rep.a_plus.T.conj())
        assert np.allclose(np.diag(rep.num), [0, 1, 2, 3])

    def test_number_matrix_smallest_dim(self):
        rep = build_rep("C", 1.2, 3)
        assert np.allclose(np.diag(rep.num), [0, 1, 2])

    def test_undeformed_position_momentum(self):
        rep = build_rep("A", 1.0, 10)
        assert np.abs(rep.X - (rep.a_plus + rep.a_minus) / SQRT2).max() == 0.0
        assert np.abs(rep.P - 1j * (rep.a_plus - rep.a_minus) / SQRT2).max() == 0.0

    def test_position_entry_uses_shifted_coefficient(self):
        q = 1.015
        rep = build_rep("A", q, 3)
        g1 = q**2 / SQRT2
        assert rep.X[1, 0] == pytest.approx(g1 * math.sqrt(phi_closed("A", q, 1)), rel=1e-14)
        f0 = 1.0 / SQRT2
        assert rep.X[0, 1] == pytest.approx(f0 * math.sqrt(phi_closed("A", q, 1)), rel=1e-14)

    def test_momentum_entries(self):
        q = 1.1
        rep = build_rep("D", q, 5)
        cs = coefficients("D", q)
        n = 2
        root = math.sqrt(phi_closed("D", q, n + 1))
        assert rep.P[n + 1, n] == pytest.approx(1j * cs.k(n + 1) * root, rel=1e-14)
        assert rep.P[n, n + 1] == pytest.approx(-1j * cs.h(n) * root, rel=1e-14)

    def test_tridiagonal_with_zero_diagonal(self):
        rep = build_rep("B", 0.95, 8)
        for M in (rep.X, rep.P):
            assert np.abs(np.diag(M)).max() == 0.0
            mask = np.abs(np.subtract.outer(range(8), range(8))) != 1
            assert np.abs(M[mask]).max() == 0.0

    def test_trusted_block_size(self):
        rep = build_rep("A", 1.05, 17)
        assert rep.trusted == 16

    def test_dimension_guards(self):
        with pytest.raises(DomainError):
            build_rep("A", 1.1, 2)
        with pytest.raises(DomainError):
            build_rep("A", 1.1, 10_001)

    @pytest.mark.parametrize("dim", (3.5, "30", True))
    def test_non_integer_dimension(self, dim):
        with pytest.raises(DomainError, match="dim must be an integer"):
            build_rep("A", 1.1, dim)

    def test_overflowing_phi_names_the_level(self):
        with pytest.raises(DomainError, match=r"phi\(\d+\) leaves the double-precision range"):
            build_rep("A", 0.5, 600)

    @pytest.mark.parametrize("family,q,dim,level", [
        ("A", 1.5, 600, 439),  # phi(439) falls below the smallest normal double
        ("A", 0.5, 600, 512),  # phi(512) overflows
    ])
    def test_phi_refusal_names_the_level(self, family, q, dim, level):
        with pytest.raises(DomainError, match=rf"^phi\({level}\) leaves the double-precision "
                                              rf"range at base {q}$"):
            build_rep(family, q, dim)
        rep = dataclasses.replace(build_rep(family, 1.2, dim), params=DeformationParams(q=q))
        with pytest.raises(DomainError, match=rf"^phi\({level}\) leaves the double-precision "
                                              rf"range at base {q}$"):
            verify_ladder(rep)

    @pytest.mark.parametrize("family,params,message", [
        ("At", 1.1, "phi_closed: family At is two-parameter but params lack p"),
        ("A", math.inf, "phi_closed requires finite q > 0, got inf"),
        (FamilyId(FamilyTag.A, c0=2.0), 1.1, "phi_closed covers the printed families"),
    ])
    def test_family_and_params_are_checked_as_phi_closed_checks_them(self, family, params,
                                                                     message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            build_rep(family, params, 5)
        rep = build_rep("A", 1.1, 5)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            verify_ladder(dataclasses.replace(rep, family=FamilyId.parse(family),
                                              params=DeformationParams(q=params)))

    def test_override_keeps_no_table(self):
        q = 1.1
        rep = build_rep("A", q, 10, phi=lambda n: phi_closed("A", q, n))
        assert rep._phi is None
        assert verify_ladder(rep) == verify_ladder(build_rep("A", q, 10))

    def test_table_is_outside_eq_and_repr(self):
        rep = build_rep("Ct", DeformationParams(q=1.2, p=0.9), 8)
        assert rep._phi is not None
        copy = dataclasses.replace(rep)
        assert copy._phi is None
        assert copy == rep and repr(copy) == repr(rep)
        assert "_phi" not in repr(rep)

    def test_negative_phi_names_level(self):
        broken = lambda n: -1.0 if n == 4 else float(n)
        with pytest.raises(DomainError, match="phi\\(4\\)"):
            build_rep("A", 1.1, 6, phi=broken)


class TestVerifiers:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", (0.9, 1.015, 1.1))
    @pytest.mark.parametrize("dim", (5, 30))
    def test_all_identities_hold(self, family, q, dim):
        rep = build_rep(family, params_for(family, q), dim)
        assert verify_heisenberg(rep).residual <= 1e-10
        assert verify_gh_relation(rep).residual <= 1e-10
        assert verify_ladder(rep).residual <= 1e-12

    def test_undeformed_commutator(self):
        rep = build_rep("A", 1.0, 10)
        comm = rep.X @ rep.P - rep.P @ rep.X
        t = rep.trusted
        assert np.abs(comm[:t, :t] - 1j * np.eye(10)[:t, :t]).max() <= 1e-13

    def test_boundary_artifact_is_real(self):
        for q in (0.9, 1.015, 1.1):
            rep = build_rep("A", q, 12)
            assert verify_heisenberg(rep).boundary > 0.0

    def test_report_fields(self):
        rep = build_rep("B", 1.1, 8)
        report = verify_heisenberg(rep, tol=1e-10)
        assert report.name == "heisenberg"
        assert report.passed
        assert report.boundary > report.residual

    def test_perturbed_phi_fails(self):
        q = 1.05
        bad = lambda n: phi_closed("A", q, n) * (1 + 1e-3) if n else 0.0
        rep = build_rep("A", q, 10, phi=bad)
        assert not verify_heisenberg(rep).passed
        assert not verify_gh_relation(rep).passed
        assert verify_ladder(rep).residual > 1e-10

    @pytest.mark.parametrize("family,q,p", [("A", 1.1, None), ("Bt", 1.1, 0.9), ("D", 0.5, None)])
    @pytest.mark.parametrize("dim", (3, 30, 300))
    def test_ladder_reuses_the_closed_form_table(self, monkeypatch, family, q, p, dim):
        rep = build_rep(family, DeformationParams(q=q, p=p), dim)
        calls = []
        phi_at = dsf._phi_at
        monkeypatch.setattr(dsf, "_phi_at", lambda *args: calls.append(args) or phi_at(*args))
        report = verify_ladder(rep)
        assert calls == []
        copy = dataclasses.replace(rep)  # drops the table: init=False
        assert copy._phi is None
        assert verify_ladder(copy) == report  # recomputed, bit for bit
        assert [args[2] for args in calls] == list(range(dim + 1))

    def test_swapped_params_recompute_phi(self):
        rep = build_rep("A", 1.1, 30)
        assert verify_ladder(rep).passed
        swapped = dataclasses.replace(rep, params=DeformationParams(q=1.2))
        assert swapped._phi is None
        assert not verify_ladder(swapped).passed

    def test_nan_amplitude_fails_every_check(self):
        rep = build_rep("A", 1.1, 6)
        ladder = rep.ladder.copy()
        ladder[2] = math.nan
        rep = dataclasses.replace(rep, ladder=ladder)
        for report in (verify_gh_relation(rep), verify_ladder(rep)):
            assert math.isnan(report.residual) and not report.passed

    def test_explicit_gh_argument(self):
        from defosc import gh_pair

        params = DeformationParams(q=1.2, p=1.1)
        rep = build_rep("Ct", params, 12)
        report = verify_gh_relation(rep, gh_pair("Ct", params))
        assert report.residual <= 1e-10


    @pytest.mark.parametrize("verify", [verify_heisenberg, verify_gh_relation, verify_ladder])
    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
    def test_bad_tol_is_domain_error(self, verify, tol):
        rep = build_rep("A", 1.1, 8)
        with pytest.raises(DomainError, match=rf"^tol must be positive, got {tol!r}$"):
            verify(rep, tol=tol)

    @pytest.mark.parametrize("verify", [verify_heisenberg, verify_gh_relation, verify_ladder])
    def test_infinite_tol_is_domain_error(self, verify):
        # a broken algebra must not pass under tol = inf
        rep = build_rep("A", 1.1, 8, phi=lambda n: float(n * n))
        with pytest.raises(DomainError, match=r"^tol must be finite, got inf$"):
            verify(rep, tol=math.inf)


class TestHermiticity:
    def test_hermitian_only_undeformed(self):
        defect = lambda rep: np.abs(rep.X - rep.X.conj().T).max()
        assert defect(build_rep("A", 1.0, 10)) == 0.0
        for q in (0.9, 1.015, 1.2):
            assert defect(build_rep("A", q, 10)) > 0.0


class TestBandStorage:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", (0.9, 1.1))
    def test_band_entries_are_the_scalar_products(self, family, q):
        params = params_for(family, q)
        rep = build_rep(family, params, 40)
        cs = coefficients(family, params)
        for n in range(rep.dim - 1):
            root = math.sqrt(phi_closed(family, params, n + 1))
            assert rep.ladder[n] == root
            assert rep.x_sub[n] == cs.g(n + 1) * root
            assert rep.x_sup[n] == cs.f(n) * root
            assert rep.p_sub[n] == 1j * cs.k(n + 1) * root
            assert rep.p_sup[n] == -1j * cs.h(n) * root

    def test_dense_properties_are_fresh_copies(self):
        rep = build_rep("A", 1.1, 6)
        rep.X[1, 0] = 0.0
        assert rep.X[1, 0] == rep.x_sub[0] != 0.0

    def test_coefficient_overflow_names_the_level(self):
        # phi(0..530) stays finite at C, q = 0.5, but f(n) = q**(-2n)/sqrt(2) does not
        with pytest.raises(DomainError, match=r"f\(512\) leaves the double-precision range"):
            build_rep("C", 0.5, 530)

    def test_unread_coefficient_level_may_overflow(self):
        # X[n, n+1] reads f(n) for n <= D - 2 = 511 only; f(512) overflows unread
        with pytest.raises(OverflowError):
            coefficients("C", 0.5).f(512)
        rep = build_rep("C", 0.5, 513)
        for report in (verify_heisenberg(rep), verify_gh_relation(rep), verify_ladder(rep)):
            assert report.residual <= 1e-15, report

    def test_each_coefficient_is_evaluated_at_the_levels_it_reads(self, monkeypatch):
        calls = {name: [] for name in "fghk"}

        def counting(family, params):
            cs = coefficients(family, params)
            return type(cs)(**{name: (lambda n, name=name: calls[name].append(n)
                                      or getattr(cs, name)(n)) for name in "fghk"})

        monkeypatch.setattr(fock, "coefficients", counting)
        plain = build_rep("Bt", DeformationParams(q=1.1, p=0.9), 7)
        monkeypatch.undo()
        assert calls["f"] == calls["h"] == list(range(0, 6))
        assert calls["g"] == calls["k"] == list(range(1, 7))
        rep = build_rep("Bt", DeformationParams(q=1.1, p=0.9), 7)
        for name in ("ladder", "x_sub", "x_sup", "p_sub", "p_sup"):
            assert np.array_equal(getattr(plain, name), getattr(rep, name))

    @pytest.mark.parametrize("phi,level", [
        (lambda n: n / (5 - n), 5),  # ZeroDivisionError
        (lambda n: 2.0 ** (1100 if n == 6 else n), 6),  # OverflowError
        (lambda n: math.inf if n == 3 else n / (5 - n), 3),  # inf before the raise
    ])
    def test_failing_override_names_the_level(self, phi, level):
        with pytest.raises(DomainError, match=rf"^phi\({level}\) leaves the double-precision range$"):
            build_rep("A", 1.1, 8, phi=phi)

    @pytest.mark.parametrize("broken,match", [
        (GHPair(G=lambda n: 1.0, H=lambda n: 10.0 ** (400 if n == 3 else 0)), r"H\(3\)"),
        (GHPair(G=lambda n: math.inf if n == 2 else 1.0, H=lambda n: 1.0), r"G\(2\)"),
        (GHPair(G=lambda n: 1.0, H=lambda n: 1.0 / (4 - n)), r"H\(4\)"),  # ZeroDivisionError
        (GHPair(G=lambda n: 1.0 / (n - 2), H=lambda n: 1.0), r"G\(2\)"),
    ])
    def test_gh_overflow_names_the_level(self, broken, match):
        rep = build_rep("A", 1.0, 6)
        with pytest.raises(DomainError, match=match + " leaves the double-precision range"):
            verify_gh_relation(rep, broken)

    def test_scale_to_max_dim(self):
        start = time.perf_counter()
        rep = build_rep("A", 1.0, MAX_DIM)
        for report in (verify_heisenberg(rep), verify_gh_relation(rep), verify_ladder(rep)):
            assert report.passed, report
        assert hermiticity_defect(rep, "X") == 0.0
        assert hermiticity_defect(rep, "P") == 0.0
        elapsed = time.perf_counter() - start
        stored = sum(getattr(rep, f.name).nbytes for f in dataclasses.fields(rep)
                     if isinstance(getattr(rep, f.name), np.ndarray))
        assert stored < 2_000_000  # the dense layout needed 5 * 16 * D**2 = 8 GB
        assert elapsed < 2.0


# ---------------------------------------------------------------------------
# dense reference: the verifier bodies of the dense D x D layout, applied to
# the dense properties, against which the banded verifiers are gated
# ---------------------------------------------------------------------------

def _dense_split(matrix, scale, trusted):
    scaled = np.abs(matrix) / np.maximum(scale, 1.0)
    inner = scaled[:trusted, :trusted].max()
    mask = np.zeros(matrix.shape, dtype=bool)
    mask[trusted:, :] = True
    mask[:, trusted:] = True
    return float(inner), float(scaled[mask].max())


def _dense_heisenberg(rep, X, P):
    p_eff = rep.params.p if rep.params.two_parameter else 1.0
    q = rep.params.q
    eye = np.eye(rep.dim)
    R = p_eff * (X @ P) - q * (P @ X) - 1j * eye
    absX, absP = np.abs(X), np.abs(P)
    scale = abs(p_eff) * (absX @ absP) + abs(q) * (absP @ absX) + eye
    return _dense_split(R, scale, rep.trusted)


def _dense_gh_relation(rep, ap, am):
    gh = gh_pair(rep.family, rep.params)
    Hd = np.diag([gh.H(n) for n in range(rep.dim)])
    Gd = np.diag([gh.G(n) for n in range(rep.dim)])
    raise_then_lower, lower_then_raise = am @ ap, ap @ am
    eye = np.eye(rep.dim)
    R = Hd @ raise_then_lower - Gd @ lower_then_raise - eye
    scale = np.abs(Hd) @ np.abs(raise_then_lower) + np.abs(Gd) @ np.abs(lower_then_raise) + eye
    return _dense_split(R, scale, rep.trusted)


def _dense_ladder(rep, ap, am, num):
    abs_ap, abs_am, abs_num = np.abs(ap), np.abs(am), np.abs(num)
    phi = [phi_closed(rep.family, rep.params, n) for n in range(rep.dim + 1)]
    steps = np.diag([phi[n + 1] - phi[n] for n in range(rep.dim)])
    step_scale = np.diag([abs(phi[n + 1]) + abs(phi[n]) for n in range(rep.dim)])
    checks = (
        (num @ ap - ap @ num - ap, abs_num @ abs_ap + abs_ap @ abs_num + abs_ap),
        (num @ am - am @ num + am, abs_num @ abs_am + abs_am @ abs_num + abs_am),
        (am @ ap - ap @ am - steps, abs_am @ abs_ap + abs_ap @ abs_am + step_scale),
    )
    splits = [_dense_split(R, scale, rep.trusted) for R, scale in checks]
    return max(s[0] for s in splits), max(s[1] for s in splits)


def _dense_defect(rep, T):
    block = T[:rep.trusted, :rep.trusted]
    return float(np.abs(block - block.conj().T).max())


def _dense_metric(rep, T, tol=1e-10):
    """The dense find_metric: eta and residual, or the error class it raises."""
    eta = np.empty(rep.dim)
    eta[0] = level = 1.0
    for n in range(rep.dim - 1):
        sub, sup = complex(T[n + 1, n]), complex(T[n, n + 1])
        if sub == 0 or sup == 0:
            return DegenerateOperatorError
        if sup.conjugate() == sub:
            eta[n + 1] = level
            continue
        r_up, r_down = sup.conjugate() / sub, sup / sub.conjugate()
        if abs(r_up - r_down) > tol * max(1.0, abs(r_up)):
            return MetricError
        if abs(r_up.imag) > tol * max(1.0, abs(r_up)) or r_up.real <= 0:
            return MetricError
        level *= r_up.real
        if not 0.0 < level < math.inf:
            return MetricError
        eta[n + 1] = level
    t = rep.trusted
    with np.errstate(over="ignore", invalid="ignore"):
        similar = (eta[:, None] * T) / eta[None, :]
        gap = np.abs(similar - T.conj().T)[:t, :t]
    residual = float(gap.max())
    return (eta, residual) if residual <= tol else MetricError


def _random_bands(rng, dim, offsets):
    return _Bands.of(dim, {k: rng.normal(size=dim - abs(k)) + 1j * rng.normal(size=dim - abs(k))
                           for k in offsets})


class TestBandAlgebra:
    @pytest.mark.parametrize("dim", (3, 4, 7))
    def test_product_and_split_match_dense(self, dim):
        rng = np.random.default_rng(dim)
        A, B = _random_bands(rng, dim, (-1, 1)), _random_bands(rng, dim, (-2, 0, 1))
        assert np.abs((A @ B).dense() - A.dense() @ B.dense()).max() <= 1e-15
        assert np.array_equal((2.0 * A - B + abs(A)).dense(),
                              2.0 * A.dense() - B.dense() + np.abs(A.dense()))
        R, scale = _random_bands(rng, dim, (-2, 0, 2)), abs(_random_bands(rng, dim, (-2, 0, 2)))
        for trusted in range(2, dim):
            assert _split_residual(R, scale, trusted) == _dense_split(
                R.dense(), scale.dense().real, trusted)


GATE_GRID = [
    *((family, q, None) for family in ONE_PARAM for q in (0.9, 1.0, 1.1)),
    *((family, q, p) for family in TWO_PARAM for q in (0.9, 1.0, 1.1) for p in (0.9, 1.1)),
]


class TestDenseEquivalence:
    @pytest.mark.parametrize("family,q,p", GATE_GRID)
    def test_banded_matches_dense(self, family, q, p):
        for dim in (3, 4, 30, 100, 300):
            rep = build_rep(family, DeformationParams(q=q, p=p), dim)
            X, P, ap, am, num = rep.X, rep.P, rep.a_plus, rep.a_minus, rep.num
            pairs = (
                (verify_heisenberg(rep), _dense_heisenberg(rep, X, P)),
                (verify_gh_relation(rep), _dense_gh_relation(rep, ap, am)),
                (verify_ladder(rep), _dense_ladder(rep, ap, am, num)),
            )
            for report, (residual, boundary) in pairs:
                assert abs(report.residual - residual) <= 1e-15, (dim, report)
                assert abs(report.boundary - boundary) <= 1e-15, (dim, report)
            for target, T in (("X", X), ("P", P)):
                assert hermiticity_defect(rep, target) == _dense_defect(rep, T)
                expected = _dense_metric(rep, T)
                if isinstance(expected, tuple):
                    metric = find_metric(rep, target)
                    assert np.array_equal(metric.eta, expected[0])
                    assert metric.residual == expected[1]
                else:
                    with pytest.raises(expected):
                        find_metric(rep, target)

    @pytest.mark.parametrize("family,q,p", [("A", 1.1, None), ("Ct", 0.9, 1.1)])
    @pytest.mark.parametrize("dim", (3, 4, 30))
    def test_corrupted_phi_matches_dense(self, family, q, p, dim):
        # a phi and an X off the algebra leave O(1) residuals on every band,
        # so the split into trusted block and boundary is exercised entry by entry
        params = DeformationParams(q=q, p=p)
        rep = build_rep(family, params, dim,
                        phi=lambda n: phi_closed(family, params, n) * (1 + 0.3 * math.sin(n)))
        rep = dataclasses.replace(rep, x_sup=rep.x_sup * (1 + 0.3 * np.cos(np.arange(dim - 1))))
        X, P, ap, am, num = rep.X, rep.P, rep.a_plus, rep.a_minus, rep.num
        pairs = (
            (verify_heisenberg(rep), _dense_heisenberg(rep, X, P)),
            (verify_gh_relation(rep), _dense_gh_relation(rep, ap, am)),
            (verify_ladder(rep), _dense_ladder(rep, ap, am, num)),
        )
        for report, (residual, boundary) in pairs:
            assert report.residual > 1e-3
            assert report.residual == pytest.approx(residual, rel=1e-14, abs=1e-15)
            assert report.boundary == pytest.approx(boundary, rel=1e-14, abs=1e-15)
