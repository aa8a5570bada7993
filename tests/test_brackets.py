import cmath
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from defosc import DomainError, bracket_pq, bracket_q, bracket_sym

from conftest import assert_close


def geometric_sum(n, q):
    # independent route: [n]_q as the literal sum 1 + q + ... + q**(n-1)
    return sum(q**i for i in range(n))


class TestBracketQ:
    def test_empty_sum(self):
        assert bracket_q(0, 0.5) == 0.0
        assert bracket_q(0, 7.3) == 0.0

    def test_classical_limit_exact(self):
        assert bracket_q(5, 1.0) == 5.0

    def test_small_case_against_sum(self):
        # 1 + q + q**2 at q = 2
        assert bracket_q(3, 2.0) == 7.0

    @pytest.mark.parametrize("q", [0.3, 0.9, 1.2, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_matches_geometric_sum(self, n, q):
        assert_close(bracket_q(n, q), geometric_sum(n, q), rel=1e-12)

    @given(st.integers(min_value=0, max_value=80),
           st.floats(min_value=0.2, max_value=2.0))
    def test_recursion(self, n, q):
        # [n+1]_q = 1 + q [n]_q
        assert_close(bracket_q(n + 1, q), 1.0 + q * bracket_q(n, q),
                     rel=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("q", [0.0, -1.0, -0.5, math.inf])
    def test_rejects_nonpositive(self, q):
        with pytest.raises(DomainError):
            bracket_q(3, q)

    def test_rejects_negative_level(self):
        with pytest.raises(DomainError):
            bracket_q(-1, 1.5)


class TestBracketPQ:
    def test_unit(self):
        assert bracket_pq(1, 0.7, 1.9) == 1.0

    def test_two_levels(self):
        # p + q at q = 1, p = 3
        assert bracket_pq(2, 1.0, 3.0) == 4.0

    def test_equal_parameter_limit(self):
        assert bracket_pq(3, 2.0, 2.0) == 12.0
        # cross-check the limit branch against a nearby generic evaluation
        assert_close(bracket_pq(3, 2.0, 2.0 + 1e-8), 12.0, rel=1e-7)

    @pytest.mark.parametrize("x", [0, 1, 2, 5, 12])
    def test_homogeneous_sum(self, x):
        q, p = 1.3, 0.8
        expected = sum(p ** (x - 1 - i) * q**i for i in range(x))
        assert_close(bracket_pq(x, q, p), expected, rel=1e-12, abs_tol=1e-15)

    @given(st.integers(min_value=0, max_value=40),
           st.floats(min_value=0.3, max_value=1.8),
           st.floats(min_value=0.3, max_value=1.8))
    def test_symmetric_in_q_p(self, x, q, p):
        assert bracket_pq(x, q, p) == bracket_pq(x, p, q)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            bracket_pq(2, -1.0, 1.0)
        with pytest.raises(DomainError):
            bracket_pq(2, 1.0, 0.0)

    @pytest.mark.parametrize("q,p,shown", [
        (math.inf, 1.1, "q > 0, got inf"), (1.1, math.inf, "p > 0, got inf"),
        (math.nan, 1.1, "q > 0, got nan"),
    ], ids=["inf-1.1", "1.1-inf", "nan-1.1"])
    def test_rejects_non_finite(self, q, p, shown):
        with pytest.raises(DomainError, match=rf"^bracket_pq requires finite {shown}$"):
            bracket_pq(3, q, p)


class TestBracketSym:
    def test_unit(self):
        assert bracket_sym(1, 0.4) == 1.0
        assert bracket_sym(1, cmath.exp(0.3j)) == pytest.approx(1.0)

    def test_real_case(self):
        # (q**2 - q**-2)/(q - 1/q) at q = 2
        assert bracket_sym(2, 2.0) == pytest.approx(2.5, rel=1e-15)

    def test_unit_circle_is_sine_ratio(self):
        theta = math.pi / 6
        value = bracket_sym(3, cmath.exp(1j * theta))
        assert value.imag == pytest.approx(0.0, abs=1e-12)
        assert value.real == pytest.approx(math.sin(3 * theta) / math.sin(theta), rel=1e-12)
        assert value.real == pytest.approx(2.0, rel=1e-12)

    def test_limits_at_plus_minus_one(self):
        assert bracket_sym(4, 1.0) == 4.0
        assert bracket_sym(4, -1.0) == -4.0  # x * q**(x-1) at q = -1
        assert bracket_sym(3, -1.0) == 3.0

    @pytest.mark.parametrize("q", [1, 1.0, 1 + 0j, -1, -1.0, -1 + 0j])
    @pytest.mark.parametrize("x", [0, 1, 2, 3, 100, 101, 2**53, 2**53 + 1, 2**53 + 2, 10**20 + 1])
    def test_limits_keep_the_exact_parity(self, x, q):
        # x (+-1)**(x - 1), with no imaginary part at a complex q: a float or complex
        # power of x - 1 lost the sign past 2**53, and (-1+0j)**101 carried 8.8e-15j
        exact = x if q == 1 or x % 2 else -x
        value = bracket_sym(x, q)
        assert type(value) is type(q)
        assert value == type(q)(exact)

    def test_inversion_symmetry(self):
        for q in (0.7, 1.6, cmath.exp(0.4j)):
            assert bracket_sym(5, q) == pytest.approx(bracket_sym(5, 1 / q), rel=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            bracket_sym(2, 0)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_rejects_non_finite(self, q):
        with pytest.raises(DomainError, match="requires finite q != 0"):
            bracket_sym(3, q)


@pytest.mark.parametrize("bracket,args", [
    (bracket_q, (2000, 2.0)),
    (bracket_q, (2000, 2)),  # an int power too large for a float
    (bracket_pq, (2000, 2.0, 1.1)),
    (bracket_pq, (2000, 2.0, 2.0)),  # the p = q limit
    (bracket_sym, (2000, 2.0)),
    (bracket_sym, (2000, 0.5)),
    (bracket_sym, (2000, 2.0 + 0.5j)),
])
def test_out_of_range_names_the_bracket(bracket, args):
    shown = re.escape(f"{bracket.__name__}{args!r}")
    with pytest.raises(DomainError, match=rf"^{shown} leaves the double-precision range$"):
        bracket(*args)


@pytest.mark.parametrize("bracket,args", [
    (bracket_q, (10**7, 3)),
    (bracket_pq, (10**7, 3, 2)),
    (bracket_pq, (10**7, 3, 3)),  # the p = q limit
    (bracket_sym, (10**7, 3)),
])
def test_an_int_parameter_is_refused_without_its_exact_power(bracket, args):
    # an int q or p is evaluated as the float it converts to, and kept in the message
    start = time.perf_counter()
    with pytest.raises(DomainError, match=rf"^{re.escape(f'{bracket.__name__}{args!r}')} leaves"):
        bracket(*args)
    assert time.perf_counter() - start < 0.1


def _value_or_refusal(bracket, *args):
    try:
        return bracket(*args)
    except DomainError:
        return "refused"


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 33, 34, 100, 600])
@pytest.mark.parametrize("q", [2, 3, 7])
def test_an_int_parameter_gives_the_value_of_its_float(n, q):
    # where q**n > 2**53 this differs from the exact int power by up to an ulp
    for bracket, args, floats in [
        (bracket_q, (n, q), (n, float(q))),
        (bracket_pq, (n, q, 5), (n, float(q), 5.0)),
        (bracket_pq, (n, q, q), (n, float(q), float(q))),
        (bracket_sym, (n, q), (n, float(q))),
    ]:
        assert _value_or_refusal(bracket, *args) == _value_or_refusal(bracket, *floats)


def test_parameters_that_underflow_as_floats_are_a_range_refusal():
    # both convert to 0.0, so their difference divides by zero
    tiny, tinier = Fraction(2, 10**400), Fraction(1, 10**400)
    with pytest.raises(DomainError, match=r"^bracket_pq\(0, a Fraction near 2e-400, "
                                          r"a Fraction near 1e-400\) leaves"):
        bracket_pq(0, tiny, tinier)
