import ast
import dataclasses
import math
import re
import time
import warnings
from fractions import Fraction

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
from defosc import dsf, families, fock
from defosc.dsf import _levels, _phi_table
from defosc.fock import (
    HBAR, MAX_DIM, FockRep, _number_products, _split_residual, _tridiagonal_product,
)

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

    @pytest.mark.parametrize("family,q,dim,message", [
        ("C", 1e5, 30, "x_sub[21] = g(22) sqrt(phi(22))"),
        ("D", 1e150, 3, "p_sup[1] = h(1) sqrt(phi(2))"),
    ])
    def test_an_overflowing_band_entry_names_its_band_and_level(self, family, q, dim, message):
        # f, g, h, k and phi are finite but their product is not: this warned and built inf bands
        phi = lambda n: phi_closed(family, q, n) * (1.0 + 1e300)  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"^{re.escape(message)} leaves the "
                                                  r"double-precision range$"):
                build_rep(family, q, dim, phi=phi)

    def test_finite_band_entries_whose_sum_overflows_are_kept(self):
        phi = {0: 0.0, 1: 1.6e308, 2: 2.0, 3: 1.0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = build_rep("A", 1e77, 3, phi=phi.__getitem__)
        assert np.all(np.isfinite(rep.x_sub)) and sum(rep.x_sub.real.tolist()) == math.inf

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

    def test_overflowing_products_report_nan_without_a_warning(self):
        # phi near the double range: the products overflow, and the residual says so
        rep = build_rep("A", 1.5, 30, phi=lambda n: phi_closed("A", 1.5, n) * (1 + 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [verify(rep) for verify in (verify_heisenberg, verify_gh_relation,
                                                  verify_ladder)]
        assert [math.isnan(report.residual) for report in reports] == [True, True, False]
        assert not any(report.passed for report in reports)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3c: G(1) = 1e-400 underflows to 0.0 "
                                           "and the relation reads residual 1.0")
    def test_an_underflowing_g_is_refused(self):
        rep = build_rep("Dt", DeformationParams(q=1e-200, p=1e-300), 3)
        with pytest.raises(DomainError, match=r"^G\(1\) leaves the double-precision range"):
            verify_gh_relation(rep)

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

    def test_each_coefficient_is_evaluated_at_the_levels_it_reads(self):
        # the bands are the closures at exactly f, h at 0..D-2 and g, k at 1..D-1
        params = DeformationParams(q=1.1, p=0.9)
        rep, cs = build_rep("Bt", params, 7), coefficients("Bt", params)
        f, h = (np.array([fn(n) for n in range(0, 6)]) for fn in (cs.f, cs.h))
        g, k = (np.array([fn(n) for n in range(1, 7)]) for fn in (cs.g, cs.k))
        assert np.array_equal(rep.x_sup, (f * rep.ladder).astype(complex))
        assert np.array_equal(rep.x_sub, (g * rep.ladder).astype(complex))
        assert np.array_equal(rep.p_sup, -1j * (h * rep.ladder))
        assert np.array_equal(rep.p_sub, 1j * (k * rep.ladder))

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
# the dense properties, against which the O(D) verifiers are gated
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


# ---------------------------------------------------------------------------
# band reference: the generic {offset: padded vector} algebra and the three
# verifier bodies the diagonal verifiers replaced, kept here as the gate that
# their residuals and boundaries are bit-identical
# ---------------------------------------------------------------------------

class _Bands(dict):
    """An operator as {offset: vector}, vector[r] = M[r, r + offset].

    Every vector has length D; rows whose column r + offset falls outside
    the matrix hold 0.
    """

    @classmethod
    def of(cls, dim, diagonals):
        """Pad diagonals as ``np.diag(M, offset)`` reads them to length-D rows."""
        bands = cls()
        for offset, diagonal in diagonals.items():
            rows = np.zeros(dim, dtype=diagonal.dtype)
            rows[max(-offset, 0):dim - max(offset, 0)] = diagonal
            bands[offset] = rows
        return bands

    def dense(self):
        dim = len(next(iter(self.values())))
        matrix = np.zeros((dim, dim), dtype=complex)
        for offset, rows in self.items():
            matrix += np.diag(rows[max(-offset, 0):dim - max(offset, 0)], offset)
        return matrix

    def __matmul__(self, other):
        out = _Bands()
        for a, left in self.items():
            for b, right in other.items():
                shifted = right  # shifted[r] = right[r + a]
                if a:
                    shifted = np.zeros_like(right)
                    if a > 0:
                        shifted[:-a] = right[a:]
                    else:
                        shifted[-a:] = right[:a]
                term = left * shifted
                out[a + b] = out[a + b] + term if a + b in out else term
        return out

    def __add__(self, other):
        out = _Bands(self)
        for offset, rows in other.items():
            out[offset] = out[offset] + rows if offset in out else rows
        return out

    def __neg__(self):
        return _Bands({offset: -rows for offset, rows in self.items()})

    def __sub__(self, other):
        return self + -other

    def __rmul__(self, scalar):
        return _Bands({offset: scalar * rows for offset, rows in self.items()})

    def __abs__(self):
        return _Bands({offset: np.abs(rows) for offset, rows in self.items()})


def _band_split(R, scale, trusted):
    """Max scaled |R| over the trusted block and over the last row and column.

    Row r of band `offset` is entry (r, r + offset), which lies in the
    trusted block iff r < trusted - max(offset, 0).
    """
    inner, boundary = [], []
    for offset, rows in R.items():
        scaled = np.abs(rows) / np.maximum(scale[offset], 1.0)
        cut = trusted - max(offset, 0)
        inner.append(scaled[:cut].max(initial=0.0))
        boundary.append(scaled[cut:].max(initial=0.0))
    return float(np.max(inner)), float(np.max(boundary))


def _band_operators(rep):
    """a+, a-, X, P of a rep as padded bands."""
    return (_Bands.of(rep.dim, {-1: rep.ladder}), _Bands.of(rep.dim, {1: rep.ladder}),
            _Bands.of(rep.dim, {-1: rep.x_sub, 1: rep.x_sup}),
            _Bands.of(rep.dim, {-1: rep.p_sub, 1: rep.p_sup}))


def _band_heisenberg(rep):
    p_eff = rep.params.p if rep.params.two_parameter else 1.0
    q = rep.params.q
    _, _, X, P = _band_operators(rep)
    eye = _Bands({0: np.ones(rep.dim)})
    R = p_eff * (X @ P) - q * (P @ X) - 1j * HBAR * eye
    absX, absP = abs(X), abs(P)
    scale = abs(p_eff) * (absX @ absP) + abs(q) * (absP @ absX) + eye
    return _band_split(R, scale, rep.trusted)


def _band_gh_relation(rep):
    gh = gh_pair(rep.family, rep.params)
    levels = range(rep.dim)
    Hd = _Bands({0: np.array(_levels(gh.H, "H", levels), dtype=float)})
    Gd = _Bands({0: np.array(_levels(gh.G, "G", levels), dtype=float)})
    ap, am, _, _ = _band_operators(rep)
    eye = _Bands({0: np.ones(rep.dim)})
    raise_then_lower = am @ ap
    lower_then_raise = ap @ am
    R = Hd @ raise_then_lower - Gd @ lower_then_raise - eye
    scale = abs(Hd) @ abs(raise_then_lower) + abs(Gd) @ abs(lower_then_raise) + eye
    return _band_split(R, scale, rep.trusted)


def _band_ladder(rep):
    ap, am, _, _ = _band_operators(rep)
    num = _Bands({0: np.arange(rep.dim, dtype=float)})
    abs_ap, abs_am, abs_num = abs(ap), abs(am), abs(num)
    phi_vals = rep._phi
    if phi_vals is None:
        phi_vals = np.array(_phi_table(rep.family, rep.params, rep.dim + 1))
    steps = _Bands({0: phi_vals[1:] - phi_vals[:-1]})
    step_scale = _Bands({0: np.abs(phi_vals[1:]) + np.abs(phi_vals[:-1])})
    checks = (
        (num @ ap - ap @ num - ap, abs_num @ abs_ap + abs_ap @ abs_num + abs_ap),
        (num @ am - am @ num + am, abs_num @ abs_am + abs_am @ abs_num + abs_am),
        (am @ ap - ap @ am - steps, abs_am @ abs_ap + abs_ap @ abs_am + step_scale),
    )
    residual, boundary = np.max([_band_split(R, scale, rep.trusted) for R, scale in checks],
                                axis=0)
    return float(residual), float(boundary)


def _random_diagonal(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _random_bands(rng, dim, offsets):
    return _Bands.of(dim, {k: _random_diagonal(rng, dim - abs(k)) for k in offsets})


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
            assert _band_split(R, scale, trusted) == _dense_split(
                R.dense(), scale.dense().real, trusted)

    @pytest.mark.parametrize("dim", (3, 4, 7))
    def test_tridiagonal_product_matches_dense_and_bands(self, dim):
        rng = np.random.default_rng(dim)
        a_sub, a_sup, b_sub, b_sup = (_random_diagonal(rng, dim - 1) for _ in range(4))
        A = _Bands.of(dim, {-1: a_sub, 1: a_sup})
        B = _Bands.of(dim, {-1: b_sub, 1: b_sup})
        dense, bands = A.dense() @ B.dense(), A @ B
        for offset, diagonal in zip((-2, 0, 2), _tridiagonal_product(a_sub, a_sup, b_sub, b_sup)):
            assert np.abs(diagonal - np.diag(dense, offset)).max() <= 1e-15
            padded = _Bands.of(dim, {offset: diagonal})[offset]
            assert np.array_equal(padded, bands[offset])

    @pytest.mark.parametrize("dim", (3, 4, 7))
    def test_number_products_match_dense(self, dim):
        rng = np.random.default_rng(dim)
        ladder = _random_diagonal(rng, dim - 1)
        ap, am = _Bands.of(dim, {-1: ladder}), _Bands.of(dim, {1: ladder})
        raise_then_lower, lower_then_raise = _number_products(ladder)
        assert np.array_equal(raise_then_lower, (am @ ap)[0])
        assert np.array_equal(lower_then_raise, (ap @ am)[0])
        assert np.abs(raise_then_lower - np.diag(am.dense() @ ap.dense())).max() <= 1e-15
        assert np.abs(lower_then_raise - np.diag(ap.dense() @ am.dense())).max() <= 1e-15

    @pytest.mark.parametrize("dim", (3, 4, 7))
    def test_split_matches_dense(self, dim):
        rng = np.random.default_rng(dim)
        R, scale = _random_bands(rng, dim, (-2, 0, 2)), abs(_random_bands(rng, dim, (-2, 0, 2)))
        diagonals = [(np.diag(R.dense(), k), np.diag(scale.dense(), k).real) for k in (-2, 0, 2)]
        expected = _dense_split(R.dense(), scale.dense().real, dim - 1)
        assert _split_residual(diagonals) == expected == _band_split(R, scale, dim - 1)

    def test_split_lets_nan_through(self):
        ones = np.ones(3)
        finite = (np.array([2.0, 3.0]), np.ones(2))
        # the NaN diagonal comes last, where the builtin max would drop it
        assert math.isnan(_split_residual([finite, (np.array([math.nan, 0.5, 1.0]), ones)])[0])
        assert _split_residual([finite, (np.array([0.5, 1.0, math.nan]), ones)])[0] == 2.0
        assert math.isnan(_split_residual([finite, (np.array([0.5, 1.0, math.nan]), ones)])[1])


REFERENCE_Q = (0.5, 0.9, 0.999, 1.0, 1.015, 1.1, 1.5, 2.0)
REFERENCE_P = (0.7, 1.3)
REFERENCE_DIMS = (3, 4, 5, 30, 300)
VERIFIER_REFERENCES = ((verify_heisenberg, _band_heisenberg),
                       (verify_gh_relation, _band_gh_relation),
                       (verify_ladder, _band_ladder))


def _outcome(call):
    """(residual, boundary) as a float array, or the refusal's type and message."""
    try:
        value = call()
    except DomainError as exc:
        return type(exc), str(exc)
    if isinstance(value, fock.ResidualReport):
        value = (value.residual, value.boundary)
    return np.array(value)


def _assert_same_outcomes(rep):
    for verify, reference in VERIFIER_REFERENCES:
        got, expected = _outcome(lambda: verify(rep)), _outcome(lambda: reference(rep))
        if isinstance(expected, tuple):
            assert got == expected, (verify.__name__, rep)
        else:  # bit for bit, NaN == NaN
            assert np.array_equal(got, expected, equal_nan=True), (verify.__name__, got, expected)


def _variants(rep):
    """The rep as built, with phi and x_sup off the algebra, and with a bad entry."""
    yield rep
    n = np.arange(rep.dim - 1)
    yield dataclasses.replace(rep, ladder=rep.ladder * (1 + 0.3 * np.sin(n)),
                              x_sup=rep.x_sup * (1 + 0.3 * np.cos(n)))
    for index, (value, name) in enumerate((
            (v, name) for v in (math.nan, math.inf, -1.0) for name in ("ladder", "x_sub"))):
        vector = getattr(rep, name).copy()
        vector[(0, len(vector) // 2, len(vector) - 1)[index % 3]] = value
        yield dataclasses.replace(rep, **{name: vector})


class TestBandReference:
    """The diagonal verifiers against the band verifiers they replaced, bit for bit."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_built_reps_match_the_band_reference(self, family):
        for q in REFERENCE_Q:
            for p in (REFERENCE_P if FamilyTag.parse(family).two_parameter else (None,)):
                for dim in REFERENCE_DIMS:
                    try:
                        rep = build_rep(family, DeformationParams(q=q, p=p), dim)
                    except DomainError:
                        continue
                    with np.errstate(all="ignore"):
                        for variant in _variants(rep):
                            _assert_same_outcomes(variant)

    @pytest.mark.parametrize("kind", ("complex", "real", "real-valued complex"))
    @pytest.mark.parametrize("dim", (3, 4, 7, 30))
    def test_hand_built_reps_match_the_band_reference(self, kind, dim):
        rng = np.random.default_rng(dim)
        for family, params in (("A", DeformationParams(q=1.1)),
                               ("Ct", DeformationParams(q=0.9, p=1.3))):
            for _ in range(10):
                vectors = [_random_diagonal(rng, dim - 1) for _ in range(5)]
                if kind != "complex":
                    vectors = [v.real if kind == "real" else v.real + 0j for v in vectors]
                rep = FockRep(FamilyId.parse(family), params, dim, *vectors)
                _assert_same_outcomes(rep)


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


# ---------------------------------------------------------------------------
# per-level reference: build_rep and verify_gh_relation's G and H as they were
# before the power vector, every level from its scalar function, kept as the
# gate that the vector tables are bit-identical and refuse alike
# ---------------------------------------------------------------------------

def _per_level_build_rep(family, params, dim, *, phi=None):
    """build_rep with phi(0..D) from dsf._phi_table and f, g, h, k from their closures."""
    family = FamilyId.parse(family)
    params = dsf._as_params(params)
    dim = dsf._check_level(dim, "dim")
    if not 3 <= dim <= MAX_DIM:
        raise DomainError(f"dim must be in [3, {MAX_DIM}], got {dsf._show(dim)}")
    if phi is None:
        phi_vals = np.array(_phi_table(family, params, dim + 1))
    else:
        phi_vals = np.array(_levels(phi, "phi", range(dim + 1)), dtype=float)
    negative = np.flatnonzero(phi_vals < 0)
    if negative.size:
        n = int(negative[0])
        raise DomainError(f"phi({n}) = {float(phi_vals[n])!r} < 0: ladder amplitudes undefined")
    roots = np.sqrt(phi_vals[1:dim])
    cs = coefficients(family, params)
    lower, upper = range(dim - 1), range(1, dim)
    f, g, h, k = [np.array(_levels(fn, name, levels)) for fn, name, levels in (
        (cs.f, "f", lower), (cs.g, "g", upper), (cs.h, "h", lower), (cs.k, "k", upper))]
    rep = FockRep(family, params, dim, roots, (g * roots).astype(complex),
                  (f * roots).astype(complex), 1j * (k * roots), -1j * (h * roots))
    if phi is None:
        object.__setattr__(rep, "_phi", phi_vals)
    return rep


def _rep_outcome(build, *args, **kwargs):
    """The rep's vectors and kept phi as (dtype, bytes), or the refusal's type and message."""
    try:
        rep = build(*args, **kwargs)
    except Exception as exc:  # the refusal itself is compared
        return type(exc), str(exc)
    return tuple(None if v is None else (v.dtype, v.tobytes())
                 for v in (rep.ladder, rep.x_sub, rep.x_sup, rep.p_sub, rep.p_sup, rep._phi))


def _gh_outcome(rep, per_level=False):
    """verify_gh_relation's residual and boundary bits, or the refusal's type and message;
    with `per_level`, from the family's closures passed as a user pair."""
    try:
        gh = gh_pair(rep.family, rep.params) if per_level else None
        report = verify_gh_relation(rep, gh)
    except Exception as exc:  # the refusal itself is compared
        return type(exc), str(exc)
    return _report_bits(report)


def _report_bits(report):
    return report.residual.hex(), report.boundary.hex()


def _recorded_tables(monkeypatch, call):
    """(stage, levels, table, fallback levels) of every table fock._settled settles in call()."""
    tables, settled = [], fock._settled

    def recording(values, lead, fn, stage, levels):
        fallback = int(np.count_nonzero(~((lead >= dsf._MIN_NORMAL) & np.isfinite(values))))
        table = settled(values, lead, fn, stage, levels)
        tables.append((stage, levels, table.copy(), fallback))
        return table

    monkeypatch.setattr(fock, "_settled", recording)
    try:
        call()
    except DomainError:
        pass
    finally:
        monkeypatch.undo()
    return tables


def _scalar_table(family, params, stage, levels):
    """The table of `stage` over levels from its scalar function, the per-level way."""
    if stage == "phi":
        return _phi_table(FamilyId.parse(family), params, levels[-1] + 1)[levels[0]:]
    cs, gh = coefficients(family, params), gh_pair(family, params)
    fn = {"f": cs.f, "g": cs.g, "h": cs.h, "k": cs.k, "G": gh.G, "H": gh.H}[stage]
    return _levels(fn, stage, levels)


# q == p, an int q (an exact int power where it is the base) and the bases 0.5 and 2.0,
# whose phi and G, H take the rescaled and folded forms at D = 513 and 1000
VECTOR_Q = (0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 2, 3)
VECTOR_P = (0.5, 0.9, 1.0, 1.1, 1.5, 2.0)
VECTOR_DIMS = (3, 4, 30, 300, 513, 1000)


class TestVectorTables:
    """The seven power-vector tables against the per-level tables they replaced, bit for bit."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_tables_match_the_scalar_functions(self, family, monkeypatch):
        vectorised = 0
        for q in VECTOR_Q:
            for p in (VECTOR_P if FamilyTag.parse(family).two_parameter else (None,)):
                params = DeformationParams(q=q, p=p)
                for dim in VECTOR_DIMS:
                    expected = _rep_outcome(_per_level_build_rep, family, params, dim)
                    assert _rep_outcome(build_rep, family, params, dim) == expected, (q, p, dim)
                    tables = _recorded_tables(
                        monkeypatch, lambda: verify_gh_relation(build_rep(family, params, dim)))
                    for stage, levels, table, _ in tables:
                        scalar = np.array(_scalar_table(family, params, stage, levels))
                        assert table.tobytes() == scalar.tobytes(), (stage, q, p, dim)
                    vectorised += bool(tables)
                    if isinstance(expected[0], type):  # refused
                        continue
                    rep = build_rep(family, params, dim)
                    assert _gh_outcome(rep) == _gh_outcome(rep, per_level=True), (q, p, dim)
                    copy = dataclasses.replace(rep)  # recomputes phi for verify_ladder
                    assert _report_bits(verify_ladder(copy)) == _report_bits(verify_ladder(rep))
        assert vectorised

    @pytest.mark.parametrize("family,params,dim,stages", [
        ("B", DeformationParams(q=2.0), 300, {"phi", "G", "H"}),  # rescaled phi, folded G, H
        ("Bt", DeformationParams(q=1.1, p=0.9), 1000, {"phi", "G", "H"}),
        # H(511) folds an overflowing x**(2n + 2) into its normal lead power
        ("C", DeformationParams(q=2.0), 512, {"phi", "H"}),
        ("A", DeformationParams(q=1.0), 30, {"phi"}),  # phi = n at base 1
    ])
    def test_fallback_levels_come_from_the_scalar_functions(self, family, params, dim, stages,
                                                            monkeypatch):
        tables = _recorded_tables(
            monkeypatch, lambda: verify_gh_relation(build_rep(family, params, dim)))
        assert {stage for stage, *_, fallback in tables if fallback} == stages
        for stage, levels, table, _ in tables:
            scalar = np.array(_scalar_table(family, params, stage, levels))
            assert table.tobytes() == scalar.tobytes(), stage

    @pytest.mark.parametrize("family", [
        FamilyId(FamilyTag.A, 2.0, 0.5), FamilyId(FamilyTag.C, -1.5, 3.0),
        FamilyId(FamilyTag.BT, 0.0, 1.0), FamilyId(FamilyTag.D, 2, 1),
        FamilyId(FamilyTag.CT, 1.5, 1.5), FamilyId(FamilyTag.B, Fraction(3, 2), True),
        FamilyId(FamilyTag.A, np.float32(0.1), np.int64(-3))])
    @pytest.mark.parametrize("q", (0.5, 0.9, 1.1, 2.0, 2))  # an int base too
    def test_general_constants_with_a_phi_override(self, family, q):
        params = DeformationParams(q=q, p=1.3 if family.two_parameter else None)
        phi = lambda n: phi_closed(family.tag.value, params, n)
        for dim in (3, 30, 300, 600):
            expected = _rep_outcome(_per_level_build_rep, family, params, dim, phi=phi)
            assert _rep_outcome(build_rep, family, params, dim, phi=phi) == expected, dim
            if not isinstance(expected[0], type):
                rep = build_rep(family, params, dim, phi=phi)
                assert _gh_outcome(rep) == _gh_outcome(rep, per_level=True), dim

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_refusals_match_the_per_level_build(self, family):
        extremes = (1e-300, 1e-200, 1e-10, 0.5, 2.0, 1e10, 1e200, 1e300)
        two = FamilyTag.parse(family).two_parameter
        for q in extremes:
            for p in ((1e-200, 1.0, 1e200) if two else (None,)):
                params = DeformationParams(q=q, p=p)
                for dim in (3, 30, 530, 1000):
                    expected = _rep_outcome(_per_level_build_rep, family, params, dim)
                    assert _rep_outcome(build_rep, family, params, dim) == expected, (q, p, dim)
                    # a hand-built rep reaches G and H at parameters build_rep refuses
                    rep = FockRep(FamilyId.parse(family), params, dim, *[np.ones(dim - 1)] * 5)
                    assert _gh_outcome(rep) == _gh_outcome(rep, per_level=True), (q, p, dim)
        for args in ((1.1, 2), (1.1, MAX_DIM + 1), (1.1, -1), (1.1, 3.5), (1.1, True),
                     (DeformationParams(q=1.1, p=None if two else 0.9), 5), (-1.0, 5),
                     (math.nan, 5), (1 + 1j, 5), (DeformationParams(q=10**400, p=3), 5)):
            expected = _rep_outcome(_per_level_build_rep, family, *args)
            assert isinstance(expected[0], type) and expected[0] is not TypeError, args
            assert _rep_outcome(build_rep, family, *args) == expected, args

    def test_coefficient_refusal_names_its_level(self):
        assert _rep_outcome(build_rep, "C", 0.5, 530) == (
            DomainError, "f(512) leaves the double-precision range")
        assert _rep_outcome(_per_level_build_rep, "C", 0.5, 530) == _rep_outcome(
            build_rep, "C", 0.5, 530)


# a change to the (c, w) of f, g, h, k and the (c, lead, cd, y) of G, H, each power
# w, lead, y as (e, d) of x**(e n + d), and the factor it puts on those values (None: none)
LAW_PATCHES = {
    "c doubled": (lambda c, w: (2 * c, w), lambda c, lead, cd, y: (2 * c, lead, cd, y),
                  lambda x: 2),
    "offsets raised": (lambda c, w: (c, (w[0], w[1] + 1)),
                       lambda c, lead, cd, y: (c, (lead[0], lead[1] + 1), cd, y), lambda x: x),
    "y stride lowered": (lambda c, w: (c, w), lambda c, lead, cd, y: (c, lead, cd, (y[0] - 1, y[1])),
                         None),
}


class TestLawTerms:
    """fock states no law of its own: its tables follow the term tables of `families`."""

    @pytest.mark.parametrize("law_patch", LAW_PATCHES)
    @pytest.mark.parametrize("family,params,dim,phi", [
        ("A", DeformationParams(q=1.1), 30, None),
        ("D", DeformationParams(q=0.9), 300, None),
        ("C", DeformationParams(q=2.0), 512, None),  # H folds at level 511
        ("Bt", DeformationParams(q=1.1, p=0.9), 1000, None),  # G and H fall back
        ("At", DeformationParams(q=2, p=3), 30, None),  # an int base
        (FamilyId(FamilyTag.C, -1.5, 3.0), DeformationParams(q=1.1), 30,
         lambda n: phi_closed("C", 1.1, n)),  # general constants: G and H read c0 d0
    ])
    def test_tables_follow_patched_terms(self, family, params, dim, phi, law_patch,
                                         monkeypatch):
        terms = families._coefficient_terms, families._operator_terms
        coefficient_patch, operator_patch, factor = LAW_PATCHES[law_patch]
        family = FamilyId.parse(family)
        unpatched = {stage: np.array(_scalar_table(family, params, stage, range(1, dim - 1)))
                     for stage in "fghkGH"}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(families, "_coefficient_terms",
                          lambda *args: [coefficient_patch(*law) for law in terms[0](*args)])
            patch.setattr(families, "_operator_terms",
                          lambda *args: [operator_patch(*law) for law in terms[1](*args)])
            expected = _rep_outcome(_per_level_build_rep, family, params, dim, phi=phi)
            assert _rep_outcome(build_rep, family, params, dim, phi=phi) == expected
            rep = build_rep(family, params, dim, phi=phi)
            assert _gh_outcome(rep) == _gh_outcome(rep, per_level=True)
            tables = _recorded_tables(monkeypatch, lambda: verify_gh_relation(
                build_rep(family, params, dim, phi=phi)))
            assert {stage for stage, *_ in tables} == {*"fghkGH", *["phi"] * (phi is None)}
            for stage, levels, table, _ in tables:
                assert table.tobytes() == np.array(
                    _scalar_table(family, params, stage, levels)).tobytes(), stage
                if stage == "phi":
                    continue
                # the patch reached the table: each value scaled by its factor, or G, H moved
                patched = table[[levels.index(n) for n in range(1, dim - 1)]]
                if factor is None:
                    assert (stage in "GH") != np.array_equal(patched, unpatched[stage]), stage
                else:  # 0.5 c lead may be subnormal where G or H is not: scaling it rounds
                    assert np.allclose(patched, factor(params.power_base) * unpatched[stage],
                                       rtol=1e-3, atol=0), stage

    def test_fock_names_no_law_constant(self):
        with open(fock.__file__, encoding="utf-8") as source:
            tree = ast.parse(source.read())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        assert not names & {"_EXPONENTS", "_PHI_AB", "_SQRT2", "c0", "d0"}
