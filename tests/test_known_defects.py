"""ROADMAP item 16's register: every live false result as one strict xfail.

Each test states one repro as ROADMAP.md states it and asserts the correct
outcome, so today it fails.  Each mark is strict, names its ROADMAP item and
the exception the defect raises today: a fix shows up as XPASS(strict), and a
changed symptom as a plain failure.  The change that mends a defect removes
its mark and says so in CHANGES.md.

Also in the register, where it already was:
- item 3c's G(1) underflow,
  tests/test_fock.py::TestVerifiers::test_an_underflowing_g_is_refused.

Not yet in it: item 9's repro (Bt at q 1.1, p 0.9, n = 600 within 2e-15 of its
exact value) needs item 15's exact evaluator.
"""

import decimal
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from defosc import (
    DeformationParams,
    DomainError,
    NoMetricError,
    bracket_q,
    build_rep,
    cli,
    coefficients,
    find_metric,
    gh_pair,
    phi_from_gh,
    phi_symmetrized,
    ratio_kernel_constancy,
)

DID_NOT_RAISE = pytest.fail.Exception  # what pytest.raises raises when the call returns


def known(item: str, symptom: str, raises: type):
    return pytest.mark.xfail(strict=True, raises=raises, reason=f"ROADMAP item {item}: {symptom}")


# --- item 3b: a raw OverflowError from public closures ----------------------

@known("3b", "a raw OverflowError, not a DomainError", OverflowError)
@pytest.mark.parametrize("call", [
    lambda: coefficients("B", 0.5).f(600),
    lambda: gh_pair("B", 0.5).H(600),
    lambda: gh_pair("D", 2.0).H(1024),  # the folded power itself overflows
    lambda: ratio_kernel_constancy(lambda n: 2.0 ** (1000 * n), lambda n: 1.0, 5),
    lambda: gh_pair("A", 3).H(10**5),  # at an int q, after its exact int powers (item 18)
], ids=["coefficients-B-f600", "gh_pair-B-H600", "gh_pair-D-H1024", "ratio_kernel_constancy",
        "gh_pair-A-int-q-H1e5"])
def test_3b_a_value_beyond_the_double_range_is_refused(call):
    with pytest.raises(DomainError):
        call()


# --- item 3c: a silent inf or 0 ---------------------------------------------

@known("3c", "H(21), about 1e486, returns inf", DID_NOT_RAISE)
def test_3c_an_overflowing_h_is_refused():
    with pytest.raises(DomainError):
        gh_pair("A", 387258.75).H(21)


def _exact_h(params: DeformationParams, n: int) -> Decimal:
    """Bt's H(n) = p x**(-4 n - 2) (1 + x**(2 n + 2)) / 2 to 60 digits at the double
    base x = q/p, so item 9's rounding of q/p does not count here."""
    with decimal.localcontext(decimal.Context(prec=60, Emin=-10**6, Emax=10**6)):
        x = Decimal(params.power_base)
        return Decimal(params.p) * x ** (-4 * n - 2) * (1 + x ** (2 * n + 2)) / 2


@known("3c", "0.5 c lead underflows though lead is normal: H(1509) reads 0.0", AssertionError)
def test_3c_an_in_range_h_does_not_underflow():
    params = DeformationParams(q=1.1e-100, p=1e-100)
    exact = _exact_h(params, 1509)  # about 5.97e-226
    assert abs(Decimal(gh_pair("Bt", params).H(1509)) - exact) <= Decimal("1e-14") * exact


@known("3c", "gh_relation reads 1.0 on a correct algebra", AssertionError)
def test_3c_verify_passes_a_correct_algebra_at_tiny_parameters():
    assert cli.main(["verify", "--family", "Bt", "--q", "1.1e-100", "--p", "1e-100",
                     "--dim", "1400"]) == 0


# --- item 3k: numpy scalars from user callables ------------------------------

@known("3k", "numpy's overflow warning escapes in place of the DomainError", RuntimeWarning)
def test_3k_numpy_scalars_from_user_callables_are_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            phi_from_gh(lambda n: np.float64(1e300), lambda n: np.float64(1e-10), 5)


# --- item 4: find_metric refuses metrics that exist --------------------------

@known("4", "eta leaves the double range, so the metric is refused", NoMetricError)
@pytest.mark.parametrize("q,dim", [(1.015, 1000), (0.999, 2000)])
def test_4_the_metric_is_found(q, dim):
    metric = find_metric(build_rep("A", q, dim), "X")
    assert metric.residual <= 1e-10  # find_metric's default tol


# --- item 6: closed forms near q = 1 -----------------------------------------

@known("6", "the bracket cancels near q = 1: residuals of 2.5e-9 fail a correct algebra",
       AssertionError)
def test_6_verify_passes_a_correct_algebra_near_one():
    assert cli.main(["verify", "--family", "A", "--q", "1.00000001"]) == 0


@known("6", "the two symmetrized evaluations disagree near q = 1", DomainError)
def test_6_phi_symmetrized_near_one_returns_a_value():
    assert isinstance(phi_symmetrized("A", 1.0000001, 10), float)


@known("6", "bracket_q(10, 1 + 1e-9) returns 10.0", AssertionError)
def test_6_bracket_q_near_one_is_accurate():
    x = Fraction(1 + 1e-9)  # the float input, exactly
    exact = sum(x**k for k in range(10))
    assert abs(Fraction(bracket_q(10, 1 + 1e-9)) - exact) <= Fraction(1, 10**15) * exact
