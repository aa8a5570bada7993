import math

import numpy as np
import pytest

from defosc import (
    DeformationParams,
    DomainError,
    FamilyTag,
    build_rep,
    coefficients,
    phi_closed,
    verify_gh_relation,
    verify_heisenberg,
    verify_ladder,
)

from conftest import ALL_FAMILIES

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

    def test_explicit_gh_argument(self):
        from defosc import gh_pair

        params = DeformationParams(q=1.2, p=1.1)
        rep = build_rep("Ct", params, 12)
        report = verify_gh_relation(rep, gh_pair("Ct", params))
        assert report.residual <= 1e-10


class TestHermiticity:
    def test_hermitian_only_undeformed(self):
        defect = lambda rep: np.abs(rep.X - rep.X.conj().T).max()
        assert defect(build_rep("A", 1.0, 10)) == 0.0
        for q in (0.9, 1.015, 1.2):
            assert defect(build_rep("A", q, 10)) > 0.0
