import math
import random
import re
import sys

import numpy as np
import pytest

from defosc import (
    DeformationParams,
    DomainError,
    FamilyId,
    FamilyTag,
    build_rep,
    degeneracy_equation,
    energy,
    find_degeneracy,
    ground_state_table,
    phi_closed,
    spectrum,
)
from defosc import dsf, spectra
from defosc.cli import main

from conftest import ONE_PARAM, assert_close


class TestEnergy:
    def test_undeformed_zero_point(self):
        assert energy("A", 1.0, 0) == 0.5

    def test_undeformed_ladder(self):
        for n in range(0, 12):
            assert energy("C", 1.0, n) == n + 0.5

    @pytest.mark.parametrize("q", (0.9, 1.015, 2.0))
    def test_ground_state_closed_form(self, q):
        assert energy("A", q, 0) == pytest.approx(q**-1 / (1 + q**2), rel=1e-14)

    def test_family_b_ground_state(self):
        assert energy("B", 1.1, 0) == pytest.approx(0.5475113122171946, rel=1e-12)

    def test_is_phi_average(self):
        q = 1.07
        for family in ONE_PARAM:
            for n in range(0, 20):
                expected = 0.5 * (phi_closed(family, q, n + 1) + phi_closed(family, q, n))
                assert energy(family, q, n) == expected

    def test_spectrum_report(self):
        report = spectrum("A", 1.015, 10)
        assert [n for n, _ in report.energies] == list(range(11))
        for n, value in report.energies:
            assert value == energy("A", 1.015, n)

    def test_spectrum_level_range(self):
        assert spectrum("A", 1.015, 0).energies == ((0, energy("A", 1.015, 0)),)
        with pytest.raises(DomainError, match="n_max must be >= 0, got -1"):
            spectrum("A", 1.015, -1)

    @pytest.mark.parametrize("n,message", [
        (2.0, "level must be an integer, got 2.0"),
        (-2, "level must be >= 0, got -2"),
    ])
    def test_bad_level_is_refused_as_given(self, n, message):
        for evaluate in (lambda: energy("A", 1.1, n),
                         lambda: degeneracy_equation("A", 1.1, n, 0),
                         lambda: degeneracy_equation("A", 1.1, 0, n)):
            with pytest.raises(DomainError, match=rf"^{message}$"):
                evaluate()

    def test_matches_fock_bilinear_diagonal(self):
        # E(n) must be half the sum of adjacent a+ a- diagonal entries
        q = 1.02
        rep = build_rep("A", q, 20)
        diag = np.real(np.diag(rep.a_plus @ rep.a_minus))
        for n in range(0, rep.trusted - 1):
            assert_close(energy("A", q, n), 0.5 * (diag[n + 1] + diag[n]), rel=1e-12)


class TestGroundStateTable:
    def test_undeformed(self):
        assert ground_state_table(1.0) == (0.5, 0.5, 0.5, 0.5)

    def test_closed_values(self):
        assert ground_state_table(2.0) == pytest.approx((0.1, 0.8, 0.1, 0.8), rel=1e-14)

    @pytest.mark.parametrize("q", (1.015, 2.0))
    def test_ordering_above_one(self, q):
        e1, e2, e3, e4 = ground_state_table(q)
        assert e1 == e3 and e2 == e4
        assert e1 < 0.5 < e2

    @pytest.mark.parametrize("q", (0.9, 0.5))
    def test_ordering_below_one(self, q):
        e1, e2, e3, e4 = ground_state_table(q)
        assert e1 == e3 and e2 == e4
        assert e2 < 0.5 < e1

    @pytest.mark.parametrize("q", (0.9, 1.015, 1.7))
    def test_cube_relation(self, q):
        e1, e2, _, _ = ground_state_table(q)
        assert e1 == pytest.approx(q**-3 * e2, rel=1e-14)

    def test_rejects_two_parameter(self):
        with pytest.raises(DomainError):
            ground_state_table(DeformationParams(q=1.1, p=1.2))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ground_state_table(-1.0)

    @pytest.mark.parametrize("q,shown", [(1e200, "1e+200"), (1e-310, "1e-310")])
    def test_overflow_names_the_call(self, q, shown):
        message = f"ground_state_table({shown}) leaves the double-precision range"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ground_state_table(q)

    def test_values_next_to_the_overflow_are_the_closed_forms(self):
        for q in (1e154, 1e-200, 1e-300):
            low, high = q**-1 / (1.0 + q**2), q**2 / (1.0 + q**2)
            assert ground_state_table(q) == (low, high, low, high)


def _two_closed_forms(q):
    """ground_state_table as it was: E1 = E3 and E2 = E4 written out."""
    def in_range(formula):
        try:
            value = formula()
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"ground_state_table({q!r}) leaves the double-precision range")
        return value
    low = in_range(lambda: q**-1 / (1.0 + q**2))
    high = in_range(lambda: q**2 / (1.0 + q**2))
    return (low, high, low, high)


class TestGroundStateFromTheExponentTable:
    def test_equals_the_two_closed_forms_bit_for_bit(self):
        rng = random.Random(3)
        qs = [1e154, 1.3407807929942596e154, 1.4e154, 1e-155, 1e-200, 1e-300, 1e-308, 5e-324,
              1e200, 1.0, 0.5, 2.0, sys.float_info.max]
        qs += [10 ** rng.uniform(-323, 308) for _ in range(3000)]
        qs += [rng.uniform(0.5, 2.0) for _ in range(500)]
        for q in qs:
            try:
                expected = tuple(map(float.hex, _two_closed_forms(q)))
            except DomainError as exc:
                with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                    ground_state_table(q)
            else:
                assert tuple(map(float.hex, ground_state_table(q))) == expected, q


class TestDegeneracyEquation:
    def test_undeformed_gap(self):
        for family in ONE_PARAM:
            assert degeneracy_equation(family, 1.0, 3, 5) == -2.0

    def test_paper_roots_nearly_vanish(self):
        assert abs(degeneracy_equation("A", 1.0913, 10, 0)) < 1e-3
        assert abs(degeneracy_equation("A", 1.015148, 90, 0)) < 1e-3

    def test_rejects_equal_levels(self):
        with pytest.raises(DomainError):
            degeneracy_equation("A", 1.1, 4, 4)

    @pytest.mark.parametrize("family", ONE_PARAM)
    @pytest.mark.parametrize("q", (0.5, 0.8, 0.999, 1.0, 1.001, 1.1, np.float64(1.1), 1.5, 3))
    def test_is_the_energy_difference_exactly(self, family, q):
        for n, m in ((0, 1), (1, 0), (10, 0), (3, 40), (90, 2), (250, 7)):
            try:
                expected = energy(family, q, n) - energy(family, q, m)
            except DomainError as exc:
                with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                    degeneracy_equation(family, q, n, m)
                continue
            assert degeneracy_equation(family, q, n, m) == expected

    @pytest.mark.parametrize("family,q,n,m", [
        # phi through the rescaled closed form: base 1.5 from n = 439, base 0.5 from n = 216
        ("C", 1.5, 439, 441), ("D", 1.5, 440, 3), ("C", 1.5, 900, 10), ("D", 1.5, 600, 0),
        ("B", 0.5, 216, 220), ("B", 0.6, 285, 0), ("B", 0.5, 220, 216),
        # phi(n) direct and phi(n + 1) rescaled
        ("C", 1.5, 438, 2), ("D", 1.5, 3, 438), ("B", 0.5, 205, 0),
    ])
    def test_is_the_energy_difference_exactly_past_the_rescale(self, family, q, n, m):
        assert degeneracy_equation(family, q, n, m) == energy(family, q, n) - energy(family, q, m)

    def test_energy_kernel_is_energy_bit_for_bit(self, monkeypatch):
        # seeded draws over the kernel's one-pass levels and every fallback to _phi_at:
        # n = 0, q = 1, an int q, a power out of range, a level to rescale, a refusal
        rng = random.Random(23)
        phi_at, fallbacks = dsf._phi_at, []
        monkeypatch.setattr(dsf, "_phi_at", lambda *args: fallbacks.append(args) or phi_at(*args))
        outcomes = {"direct": 0, "fallback": 0, "refused": 0}
        for _ in range(2000):
            family = rng.choice(ONE_PARAM)
            q = rng.choice([10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-0.3, 0.3), 1.0, 2, 3])
            n = rng.choice([0, rng.randint(1, 20), rng.randint(1, 1200)])
            try:
                expected = energy(family, q, n)
            except DomainError as exc:
                with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                    dsf._energy_at(family, q, n)
                outcomes["refused"] += 1
                continue
            fallbacks.clear()
            assert dsf._energy_at(family, q, n).hex() == expected.hex()
            outcomes["fallback" if fallbacks else "direct"] += 1
        assert min(outcomes.values()) > 200, outcomes

    @pytest.mark.parametrize("family,q,n,m,message", [
        ("A", 1.1, 4, 4, "degeneracy requires two distinct levels"),
        ("A", math.inf, 2.0, 2, "degeneracy requires two distinct levels"),
        ("A", math.inf, 3, 0, "phi_closed requires finite q > 0, got inf"),
        ("A", 0, 3, 0, "phi_closed requires finite q > 0, got 0"),
        ("A", -1, 3, 0, "phi_closed requires finite q > 0, got -1"),
        ("A", math.nan, 3, 0, "phi_closed requires finite q > 0, got nan"),
        ("A", 1 + 1j, 3, 0, r"phi_closed requires real q, got \(1\+1j\)"),
        ("At", 1.1, 3, 0, "phi_closed: family At is two-parameter but params lack p"),
        (FamilyId(FamilyTag.B, c0=2.0), 1.1, 3, 0,
         r"phi_closed covers the printed families \(c0 = d0 = 1\); reconstruct "
         "general solutions with phi_from_gh"),
        ("zz", 1.1, -1, 0, "unknown family tag 'zz'"),
        ("A", math.inf, 2.0, 0, "level must be an integer, got 2.0"),
        ("At", 1.1, -1, 0, "level must be >= 0, got -1"),
        ("A", 1.1, True, 0, "level must be an integer, got True"),
        ("A", math.inf, 3, 2.0, "phi_closed requires finite q > 0, got inf"),
        ("A", 1.1, 3, 2.0, "level must be an integer, got 2.0"),
        ("A", 1.1, 3, -1, "level must be >= 0, got -1"),
        ("A", 1.1, 3, True, "level must be an integer, got True"),
        ("A", 0.5, 3000, -1, r"phi\(3000\) leaves the double-precision range at base 0.5"),
        ("A", 1.5, 438, 2.0, r"phi\(439\) leaves the double-precision range at base 1.5"),
        ("A", 1.5, 3, 439, r"phi\(439\) leaves the double-precision range at base 1.5"),
    ])
    def test_refusals_keep_message_and_precedence(self, family, q, n, m, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            degeneracy_equation(family, q, n, m)
        if n != m:  # the same refusal as the energy difference it stands for
            with pytest.raises(DomainError, match=f"^{message}$"):
                energy(family, q, n) - energy(family, q, m)


def expanded_equation(q: float, n: int) -> float:
    # polynomial-type rewrite of E_q(n) - E_q(0) = 0 (multiplied through by
    # q**(2n) (q-1) (1+q**(2n-2)) (1+q**(2n)) (1+q**(2n+2)))
    return (
        q ** (4 * n) * (q**2 + q**-2)
        + q ** (3 * n) * (q - 1) * (q**2 + q**-3)
        - q ** (2 * n) * (q**3 + q**-3 - 2)
        + q**n * (q - q**-1)
        - q
        - q**-1
        - (1 - q**-1) / (1 + q**2)
        * q ** (2 * n)
        * (1 + q ** (2 * n - 2))
        * (1 + q ** (2 * n))
        * (1 + q ** (2 * n + 2))
    )


class TestFindDegeneracy:
    def test_tenth_level_root(self):
        roots = find_degeneracy("A", 10, 0, (1.001, 1.5), 1e-6)
        assert len(roots) == 1
        root = roots[0]
        assert abs(root.q_star - 1.0913) <= 5e-4
        assert root.bracket[0] < root.q_star < root.bracket[1]
        assert root.bracket[1] - root.bracket[0] <= 1e-6

    def test_ninetieth_level_root(self):
        roots = find_degeneracy("A", 90, 0, (1.001, 1.1), 1e-7)
        assert len(roots) == 1
        assert abs(roots[0].q_star - 1.015148) <= 5e-6

    def test_roots_decrease_with_level(self):
        stars = [find_degeneracy("A", n, 0, (1.001, 1.5), 1e-7)[0].q_star
                 for n in (10, 30, 90)]
        assert stars[0] > stars[1] > stars[2]

    def test_no_sign_change_returns_empty(self):
        assert find_degeneracy("A", 3, 5, (1.001, 1.01), 1e-6) == []

    def test_interval_straddling_one_is_split(self):
        roots = find_degeneracy("A", 10, 0, (0.9, 1.2), 1e-6)
        assert [round(r.q_star, 4) for r in roots] == [1.0913]

    def test_residual_is_small(self):
        root = find_degeneracy("A", 10, 0, (1.001, 1.5), 1e-8)[0]
        assert root.residual < 1e-6

    def test_invalid_intervals(self):
        with pytest.raises(DomainError):
            find_degeneracy("A", 10, 0, (1.5, 1.001), 1e-6)
        with pytest.raises(DomainError):
            find_degeneracy("A", 10, 0, (-0.5, 1.2), 1e-6)
        with pytest.raises(DomainError):
            find_degeneracy("A", 10, 0, (1.0, 1.2), 1e-6)
        with pytest.raises(DomainError):
            find_degeneracy("A", 10, 0, (1.001, 1.5), -1e-6)

    @pytest.mark.parametrize("kwargs,message", [
        ({"n": 2.0}, "level must be an integer, got 2.0"),
        ({"m": -1}, "level must be >= 0, got -1"),
        ({"n": True}, "level must be an integer, got True"),
        ({"grid": 2.5}, "grid must be an integer, got 2.5"),
        ({"grid": 1}, "grid must have at least 2 points, got 1"),
        # not numbers, or not a pair: `grid < 2` and the unpacking raised raw errors
        ({"grid": "5"}, "grid must be an integer, got '5'"),
        ({"grid": None}, "grid must be an integer, got None"),
        ({"search": (1.01, 1.5, 2)}, r"search must be a pair \(q_lo, q_hi\), got \(1.01, 1.5, 2\)"),
        ({"search": None}, r"search must be a pair \(q_lo, q_hi\), got None"),
        ({"search": (1.001, math.inf)}, r"search endpoints must be finite, got \(1.001, inf\)"),
        # an int beyond the double range: the scan raised a raw OverflowError
        ({"search": (1.001, 10**400)}, r"search endpoints must be finite, got \(1.001, an int of 401 digits\)"),
    ])
    def test_bad_arguments_are_refused_before_the_scan(self, kwargs, message):
        args = {"n": 10, "m": 0, "search": (1.001, 1.5), "grid": 400} | kwargs
        with pytest.raises(DomainError, match=rf"^{message}$"):
            find_degeneracy("A", args["n"], args["m"], args["search"], 1e-6, grid=args["grid"])
        if "search" not in kwargs:  # inside the guard band nothing is scanned at all
            with pytest.raises(DomainError, match=rf"^{message}$"):
                find_degeneracy("A", args["n"], args["m"], (0.99995, 1.00005), 1e-6,
                                grid=args["grid"])

    @pytest.mark.parametrize("n,search,tol,evaluations", [
        # grid 400 + bisection steps ceil(log2(step / tol)) + 1 residual evaluation
        (10, (1.001, 1.5), 1e-6, 412),
        (90, (1.001, 1.1), 1e-7, 413),
        (30, (1.001, 1.5), 1e-7, 415),
    ])
    def test_one_equation_call_per_evaluation(self, monkeypatch, n, search, tol, evaluations):
        calls = []
        equation = spectra.degeneracy_equation

        def counted(*args):
            calls.append(args)
            return equation(*args)

        monkeypatch.setattr(spectra, "degeneracy_equation", counted)
        assert len(find_degeneracy("A", n, 0, search, tol)) == 1
        assert len(calls) == evaluations

    @pytest.mark.parametrize("via_cli", [False, True])
    def test_tol_below_the_double_spacing_stops_at_adjacent_doubles(self, monkeypatch, capsys,
                                                                    via_cli):
        # the bracket cannot shrink below one ulp of q* ~ 1.0913; the loop used
        # to spin on a midpoint equal to an endpoint
        calls = []
        equation = spectra.degeneracy_equation

        def counted(*args):
            calls.append(args)
            assert len(calls) <= 400 + 64, "bisection does not terminate"
            return equation(*args)

        monkeypatch.setattr(spectra, "degeneracy_equation", counted)
        if via_cli:
            assert main(["degeneracy", "--family", "A", "--n", "10", "--m", "0",
                         "--q-range", "1.001:1.5", "--tol", "1e-17"]) == 0
            q_lo, q_hi = map(float, capsys.readouterr().out.splitlines()[1].split(",")[4:])
        else:
            (root,) = find_degeneracy("A", 10, 0, (1.001, 1.5), 1e-17)
            q_lo, q_hi = root.bracket
            assert root.q_star == 0.5 * (q_lo + q_hi)
        assert math.nextafter(q_lo, math.inf) == q_hi
        assert abs(q_lo - 1.0913) <= 5e-4
        assert len(calls) <= 400 + 64

    def test_infinite_tol_is_refused(self):
        with pytest.raises(DomainError, match="^tol must be finite, got inf$"):
            find_degeneracy("A", 10, 0, (1.001, 1.5), math.inf)


class TestFindDegeneracyScan:
    """The scan itself, on a stand-in equation q - zero whose grid points are exact doubles."""

    @staticmethod
    def _scan(monkeypatch, zero, search, grid, tol=1e-6):
        calls = []

        def line(family, q, n, m):
            calls.append(q)
            return q - zero

        monkeypatch.setattr(spectra, "degeneracy_equation", line)
        return find_degeneracy("A", 3, 0, search, tol, grid=grid), calls

    @pytest.mark.parametrize("zero", [1.5, 2.0, 2.5])  # first, interior and last grid point
    def test_exact_zero_on_the_grid_is_a_root(self, monkeypatch, zero):
        roots, calls = self._scan(monkeypatch, zero, (1.5, 2.5), 5)
        assert roots == [spectra.DegeneracyRoot(3, 0, zero, 0.0, (zero - 5e-7, zero + 5e-7))]
        assert calls == [1.5, 1.75, 2.0, 2.25, 2.5]  # no bisection

    def test_exact_zero_at_a_bisection_midpoint_stops_there(self, monkeypatch):
        roots, calls = self._scan(monkeypatch, 2.0, (1.5, 2.5), 2)
        assert roots == [spectra.DegeneracyRoot(3, 0, 2.0, 0.0, (2.0 - 5e-7, 2.0 + 5e-7))]
        assert calls == [1.5, 2.5, 2.0, 2.0]  # grid, one midpoint, the residual

    def test_sign_change_between_grid_points_is_bisected(self, monkeypatch):
        roots, calls = self._scan(monkeypatch, 2.1, (1.5, 2.5), 5, tol=1e-3)
        (root,) = roots
        assert root.bracket[1] - root.bracket[0] <= 1e-3
        assert root.bracket[0] < 2.1 < root.bracket[1]
        assert root.residual == abs(root.q_star - 2.1)
        # grid, ceil(log2(0.25 / 1e-3)) = 8 midpoints, the residual
        assert {1.5, 1.75, 2.0, 2.25, 2.5} <= set(calls) and len(calls) == 5 + 8 + 1

    def test_zeros_on_both_sides_of_the_guard_band_come_out_in_order(self, monkeypatch):
        calls = []

        def two_zeros(family, q, n, m):
            calls.append(q)
            return (q - 0.5) * (q - 1.5)

        monkeypatch.setattr(spectra, "degeneracy_equation", two_zeros)
        # the zeros sit on the first point of the lower and the last of the upper segment
        roots = find_degeneracy("A", 3, 0, (0.5, 1.5), 1e-6, grid=3)
        assert [(root.q_star, root.residual) for root in roots] == [(0.5, 0.0), (1.5, 0.0)]
        lo, hi = 1.0 - spectra.GUARD_BAND, 1.0 + spectra.GUARD_BAND
        assert calls == [0.5, 0.5 + (lo - 0.5) / 2, lo, hi, hi + (1.5 - hi) / 2, 1.5]

    @pytest.mark.parametrize("search", [(0.99995, 1.00005), (0.9999, 1.0001), (1.00001, 1.00009)])
    def test_search_inside_the_guard_band_is_empty(self, monkeypatch, search):
        roots, calls = self._scan(monkeypatch, 1.0, search, 400)
        assert roots == [] and calls == []

    def test_expanded_form_is_scaled_energy_difference(self):
        # the polynomial rewrite equals (E(n)-E(0)) times an explicit positive
        # multiplier for q > 1, so both vanish at the same roots
        for n in (2, 10):
            for q in (1.01, 1.05, 1.12, 1.3):
                multiplier = (
                    q ** (2 * n) * (q - 1)
                    * (1 + q ** (2 * n - 2)) * (1 + q ** (2 * n)) * (1 + q ** (2 * n + 2))
                )
                lhs = expanded_equation(q, n)
                rhs = degeneracy_equation("A", q, n, 0) * multiplier
                assert_close(lhs, rhs, rel=1e-9)

    def test_expanded_form_vanishes_at_solved_root(self):
        root = find_degeneracy("A", 10, 0, (1.001, 1.5), 1e-10)[0]
        scale = root.q_star ** 40  # leading term magnitude
        assert abs(expanded_equation(root.q_star, 10)) <= 1e-8 * scale
