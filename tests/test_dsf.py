import cmath
import math
import pickle
import random
import re
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from defosc import (
    DeformationParams,
    DomainError,
    FamilyId,
    FamilyTag,
    GHPair,
    SingularRecipeError,
    StructureFunction,
    bracket_pq,
    bracket_q,
    bracket_sym,
    build_rep,
    coefficients,
    degeneracy_equation,
    energy,
    find_degeneracy,
    general_gh,
    gh_pair,
    ground_state_table,
    phi_closed,
    phi_from_gh,
    phi_ratio_check,
    phi_symmetrized,
    phi_symmetrized_qp,
    spectrum,
    symmetrized_routes,
    verify_gh_relation,
    verify_heisenberg,
    verify_ladder,
    verify_ratio_recursions,
)
from defosc import dsf

from conftest import ALL_FAMILIES, ONE_PARAM, TWO_PARAM, assert_close, prefix_table, rel_err

Q_GRID = (0.8, 0.99, 1.015, 1.1, 1.5)
P_GRID = (1.0, 1.1, 1.3)


def params_for(tag: str, q: float, p: float = 1.1) -> DeformationParams:
    if FamilyTag.parse(tag).two_parameter:
        return DeformationParams(q=q, p=p)
    return DeformationParams(q=q)


class TestFamilyParsing:
    @pytest.mark.parametrize("text,expected", [
        ("A", "A"), ("b", "B"), ("At", "At"), ("a~", "At"),
        ("Ã", "At"), ("C̃", "Ct"), ("dt", "Dt"),
        # around the spelling table: a miss, upper case, and each tilde form
        (" at ", "At"), ("AT", "At"), ("A~", "At"), ("A\u0303", "At"), ("B\u0303", "Bt"),
    ])
    def test_aliases(self, text, expected):
        assert FamilyTag.parse(text).value == expected

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            FamilyTag.parse("E")

    @pytest.mark.parametrize("value", [[1], None])
    def test_unknown_non_string(self, value):
        # an unhashable value must not reach the spelling table
        with pytest.raises(DomainError, match="unknown family tag"):
            FamilyTag.parse(value)

    def test_spelling_table_agrees_with_the_rule(self):
        assert {tag.value for tag in dsf._SPELLINGS.values()} == {t.value for t in FamilyTag}
        for spelling, tag in dsf._SPELLINGS.items():
            assert dsf._match_spelling(spelling) is tag
            assert FamilyTag.parse(spelling) is tag

    def test_canonical_spellings_skip_normalisation(self, monkeypatch):
        calls = []
        normalize = dsf.unicodedata.normalize

        def counting(form, text):
            calls.append(text)
            return normalize(form, text)

        monkeypatch.setattr(dsf.unicodedata, "normalize", counting)
        for tag in FamilyTag:
            for spelling in (tag.name, tag.value, tag.value.lower()):
                assert FamilyTag.parse(spelling) is tag
        assert calls == []
        FamilyTag.parse(" at ")  # a miss takes the rule, which the counter sees
        assert calls == ["at"]

    @pytest.mark.parametrize("tag,letter,two,index", [
        (FamilyTag.A, "A", False, 1), (FamilyTag.D, "D", False, 4),
        (FamilyTag.BT, "B", True, 2), (FamilyTag.CT, "C", True, 3),
    ])
    def test_tag_attributes_are_plain(self, tag, letter, two, index):
        assert {k: vars(tag)[k] for k in ("letter", "two_parameter", "index")} == {
            "letter": letter, "two_parameter": two, "index": index}

    def test_family_id_defaults(self):
        fam = FamilyId.parse("B")
        assert (fam.c0, fam.d0) == (1.0, 1.0)
        assert fam.index == 2
        assert not fam.two_parameter

    def test_printed_family_ids_are_shared(self):
        assert FamilyId.parse("a") is FamilyId.parse(FamilyTag.A) is FamilyId.parse(" A ")
        assert FamilyId.parse("Ã") is FamilyId.parse("At") is dsf._PRINTED[FamilyTag.AT]
        for tag in FamilyTag:
            assert FamilyId.parse(tag.value) is dsf._PRINTED[tag]
            assert dsf._PRINTED[tag] == FamilyId(tag)
            assert hash(dsf._PRINTED[tag]) == hash(FamilyId(tag))
            assert FamilyId.parse(tag) != FamilyId(tag, c0=2.0)

    @pytest.mark.parametrize("custom", [
        FamilyId(FamilyTag.A, c0=2.0), FamilyId(FamilyTag.A, d0=0.5), FamilyId(FamilyTag.BT),
    ])
    def test_a_family_id_parses_to_itself(self, custom):
        assert FamilyId.parse(custom) is custom


class TestFamilyConstants:
    """FamilyId stores a real c0 or d0 as the float it holds and refuses any other."""

    @pytest.mark.parametrize("c0,d0", [
        (2, 1), (Fraction(3, 2), True), (np.float32(0.1), np.int64(-3)), (np.float64(0.5), 0.0)])
    def test_constants_are_stored_as_floats(self, c0, d0):
        family = FamilyId(FamilyTag.D, c0, d0)
        assert (type(family.c0), type(family.d0)) == (float, float)
        assert (family.c0, family.d0) == (float(c0), float(d0))

    def test_an_int_and_a_float_constant_make_one_family(self):
        ints, floats = FamilyId(FamilyTag.D, 2, 1), FamilyId(FamilyTag.D, 2.0, 1.0)
        assert ints == floats and hash(ints) == hash(floats)
        assert repr(ints) == repr(floats) == "FamilyId(tag=<FamilyTag.D: 'D'>, c0=2.0, d0=1.0)"
        assert pickle.loads(pickle.dumps(ints)) == floats

    @pytest.mark.parametrize("name,value,shown", [
        ("c0", 1j, "1j"), ("c0", "2", "'2'"), ("d0", math.nan, "nan"), ("d0", math.inf, "inf"),
        ("c0", -math.inf, "-inf"), ("c0", 10**400, "an int of 401 digits"),
        ("d0", Fraction(10**400, 3), "a Fraction near 3.3e+399"), ("c0", None, "None"),
        ("d0", np.float32("inf"), repr(np.float32("inf"))), ("c0", 1 + 0j, "(1+0j)"),
    ])
    def test_a_non_real_or_non_finite_constant_is_refused(self, name, value, shown):
        with pytest.raises(DomainError) as err:
            FamilyId(FamilyTag.A, **{name: value})
        assert str(err.value) == f"FamilyId requires finite real {name}, got {shown}"
        assert len(str(err.value)) < 200


class TestDeformationParams:
    def test_rejects_zero_p(self):
        with pytest.raises(DomainError):
            DeformationParams(q=1.2, p=0)

    def test_derived_ratio(self):
        params = DeformationParams(q=1.2, p=1.1)
        assert params.Q == pytest.approx(1.2 / 1.1)
        assert DeformationParams(q=1.2).Q is None

    def test_core_domain_rejects_complex(self):
        with pytest.raises(DomainError):
            phi_closed("A", DeformationParams(q=1j), 3)

    @pytest.mark.parametrize("q", [0.0, -2.0])
    def test_core_domain_rejects_nonpositive(self, q):
        with pytest.raises(DomainError):
            phi_closed("A", q, 3)


# every public entry that validates (family, params): value and context word
PARAM_CHECKS = [
    (lambda fam, params: phi_closed(fam, params, 3), "phi_closed"),
    (lambda fam, params: energy(fam, params, 3), "phi_closed"),
    (lambda fam, params: coefficients(fam, params).f(3), "coefficients"),
    (lambda fam, params: gh_pair(fam, params).G(3), "gh_pair"),
]


class TestParameterChecks:
    """q and p around the float fast path of require_real_positive."""

    @pytest.mark.parametrize("bad,shown", [
        (math.nan, "nan"), (math.inf, "inf"), (-1.0, "-1.0"), (0.0, "0.0"),
    ])
    @pytest.mark.parametrize("call,context", PARAM_CHECKS)
    def test_rejects_non_finite_or_nonpositive(self, call, context, bad, shown):
        with pytest.raises(DomainError, match=rf"^{context} requires finite q > 0, got {shown}$"):
            call("B", bad)
        if bad == 0.0:
            with pytest.raises(DomainError, match=r"^p = 0 is not admissible"):
                call("Bt", DeformationParams(q=1.1, p=bad))
        else:
            with pytest.raises(DomainError, match=rf"^{context} requires finite p > 0, got {shown}$"):
                call("Bt", DeformationParams(q=1.1, p=bad))

    @pytest.mark.parametrize("q,p,shown", [(1e-300, 1e300, "0.0"), (1e300, 1e-300, "inf")])
    @pytest.mark.parametrize("call,context", PARAM_CHECKS)
    def test_rejects_a_power_base_out_of_range(self, call, context, q, p, shown):
        # q and p are each finite and positive, but Q = q/p is not
        with pytest.raises(DomainError, match=rf"^{context} requires finite Q = q/p > 0, got {shown}$"):
            call("Bt", DeformationParams(q=q, p=p))

    @pytest.mark.parametrize("call,context", [
        (lambda params: phi_closed("Bt", params, 27), "phi_closed"),
        (lambda params: spectrum("At", params, 3), "phi_closed"),
        (lambda params: build_rep("Dt", params, 5), "phi_closed"),
        (lambda params: phi_ratio_check("Bt", "At", params, 3), "phi_closed"),
        (lambda params: general_gh(lambda n: 1.0, lambda n: 1.0, 1.0, 1.0, params), "general_gh"),
        (lambda params: verify_ratio_recursions(coefficients("A", 1.0), params, 3),
         "verify_ratio_recursions"),
    ])
    def test_power_base_out_of_range_is_refused_by_every_entry(self, call, context):
        # these raised ZeroDivisionError at Q = 0.0
        with pytest.raises(DomainError, match=rf"^{context} requires finite Q = q/p > 0, got 0.0$"):
            call(DeformationParams(q=1e-300, p=1e300))

    @pytest.mark.parametrize("call,shown", [
        (lambda: phi_closed("A", 10**400, 3), "phi_closed requires finite q > 0"),
        (lambda: energy("A", 10**400, 3), "phi_closed requires finite q > 0"),
        (lambda: coefficients("A", 10**400).f(3), "coefficients requires finite q > 0"),
        (lambda: gh_pair("A", 10**400).H(3), "gh_pair requires finite q > 0"),
        (lambda: spectrum("A", 10**400, 3), "phi_closed requires finite q > 0"),
        (lambda: build_rep("A", 10**400, 5), "phi_closed requires finite q > 0"),
        (lambda: degeneracy_equation("A", 10**400, 3, 0), "phi_closed requires finite q > 0"),
        (lambda: phi_closed("At", DeformationParams(10**400, 1), 3),
         "phi_closed requires finite q > 0"),
        (lambda: phi_closed("At", DeformationParams(1.5, 10**400), 3),
         "phi_closed requires finite p > 0"),
        (lambda: ground_state_table(10**400), "ground_state_table requires finite q > 0"),
    ])
    def test_int_beyond_the_double_range_is_refused(self, call, shown):
        # an int compares exactly with inf, so 10**400 passed and then leaked OverflowError
        with pytest.raises(DomainError, match=rf"^{shown}, got an int of 401 digits$"):
            call()

    def test_largest_int_in_the_double_range_passes(self):
        largest = int(sys.float_info.max)
        DeformationParams(q=largest).require_real_positive()
        DeformationParams(q=1.5, p=largest).require_real_positive()
        with pytest.raises(DomainError, match=r"^this operation requires finite q > 0, "
                                              r"got an int of 309 digits$"):
            DeformationParams(q=largest + 1).require_real_positive()

    @pytest.mark.parametrize("call,context", PARAM_CHECKS)
    def test_rejects_complex(self, call, context):
        with pytest.raises(DomainError, match=rf"^{context} requires real q, got 1j$"):
            call("B", 1j)
        with pytest.raises(DomainError, match=rf"^{context} requires real p, got 1j$"):
            call("Bt", DeformationParams(q=1.1, p=1j))

    @pytest.mark.parametrize("call,context", PARAM_CHECKS)
    def test_rejects_complex_with_zero_imaginary_part(self, call, context):
        with pytest.raises(DomainError, match=rf"^{context} requires real q, got \(1.5\+0j\)$"):
            call("B", 1.5 + 0j)
        with pytest.raises(DomainError, match=rf"^{context} requires real p, got \(1.2\+0j\)$"):
            call("Bt", DeformationParams(q=1.1, p=1.2 + 0j))

    @pytest.mark.parametrize("call,shown", [
        (lambda: phi_closed("A", 1.5 + 0j, 3), "q, got (1.5+0j)"),
        (lambda: build_rep("A", 1.2 + 0j, 5), "q, got (1.2+0j)"),
        (lambda: energy("B", 1.1 + 0j, 2), "q, got (1.1+0j)"),
        (lambda: degeneracy_equation("A", 1.5 + 0j, 3, 0), "q, got (1.5+0j)"),
        (lambda: phi_closed("At", DeformationParams(q=1.5, p=1.1 + 0j), 3), "p, got (1.1+0j)"),
    ])
    def test_complex_with_zero_imaginary_part_is_refused_before_the_kernel(self, call, shown):
        # these reached dsf._phi_at as a complex base and raised TypeError there
        with pytest.raises(DomainError, match=rf"^phi_closed requires real {re.escape(shown)}$"):
            call()

    @pytest.mark.parametrize("call,context", PARAM_CHECKS)
    def test_float_subclass_takes_the_full_check(self, call, context):
        # np.float64 is not type float: DeformationParams keeps the float it holds
        assert call("B", np.float64(1.1)) == call("B", 1.1)
        two = DeformationParams(q=np.float64(1.2), p=np.float64(1.1))
        assert call("Bt", two) == call("Bt", DeformationParams(q=1.2, p=1.1))


def _numpy_outcome(call):
    """("returns", type, repr) or ("raises", type, message): equal only when bit-identical."""
    try:
        value = call()
    except (ArithmeticError, DomainError) as exc:  # a warning raised as an error propagates
        return "raises", type(exc), str(exc)
    return "returns", type(value), repr(value)


UNIT_COMPLEX64 = np.complex64(cmath.exp(0.3j))


class TestNumpyScalarParameters:
    """A numpy float q or p is stored as the Python float it holds, so it takes the float paths."""

    @pytest.mark.parametrize("scalar", [np.float64, np.float32, np.float16])
    def test_stored_as_the_float_it_holds(self, scalar):
        params = DeformationParams(q=scalar(1.1), p=scalar(0.9))
        assert (type(params.q), type(params.p)) == (float, float)
        assert (params.q, params.p) == (float(scalar(1.1)), float(scalar(0.9)))

    def test_integers_and_complex_values_are_kept(self):
        assert type(DeformationParams(q=2).q) is int
        assert type(DeformationParams(q=np.complex128(1j)).q) is np.complex128
        assert DeformationParams(q=1.1, p=None).p is None

    @pytest.mark.parametrize("scalar", [np.int64, np.int32])
    def test_integers_stored_as_the_int_they_hold(self, scalar):
        # kept as np.int64, q would meet x ** (negative int) in the kernels: a raw ValueError
        params = DeformationParams(q=scalar(2), p=scalar(3))
        assert (type(params.q), type(params.p)) == (int, int)
        assert _numpy_outcome(lambda: phi_closed("A", scalar(2), 3)) == \
            _numpy_outcome(lambda: phi_closed("A", 2, 3))
        for family in ALL_FAMILIES:
            two = FamilyTag.parse(family).two_parameter
            for n in (0, 1, 7, 60):
                assert _numpy_outcome(lambda: phi_closed(
                    family, DeformationParams(scalar(2), scalar(3) if two else None), n)) == \
                    _numpy_outcome(lambda: phi_closed(
                        family, DeformationParams(2, 3 if two else None), n))
        with pytest.raises(DomainError, match=r"^p = 0 is not admissible"):
            DeformationParams(q=scalar(2), p=scalar(0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call,message", [
        (lambda q: ground_state_table(q(1e200)),
         r"ground_state_table\(1e\+200\) leaves the double-precision range"),
        (lambda q: phi_closed("A", q(0.5), 600),
         r"phi\(600\) leaves the double-precision range at base 0.5"),
        (lambda q: build_rep("A", q(0.5), 600),
         r"phi\(512\) leaves the double-precision range at base 0.5"),
    ])
    def test_out_of_range_is_a_domain_error_without_warnings(self, call, message):
        # np.float64 overflowed with a RuntimeWarning (an error here) and went on with inf
        for scalar in (float, np.float64):
            with pytest.raises(DomainError, match=f"^{message}$"):
                call(scalar)

    @pytest.mark.filterwarnings("error")
    def test_coefficient_overflow_is_that_of_the_float(self):
        # at the parent np.float64 returned np.float64(inf) here
        assert _numpy_outcome(lambda: coefficients("B", np.float64(0.5)).f(600)) == \
            _numpy_outcome(lambda: coefficients("B", 0.5).f(600))

    @pytest.mark.filterwarnings("error")
    def test_single_precision_is_widened_once(self):
        value = phi_closed("A", np.float32(1.1), 5)
        assert type(value) is float
        assert value == phi_closed("A", float(np.float32(1.1)), 5) != phi_closed("A", 1.1, 5)
        assert type(degeneracy_equation("A", np.float32(1.09), 10, 0)) is float

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q,p", [(0.5, 0.9), (0.9, 1.3), (1.1, 0.9), (2.0, 1.3)])
    def test_values_are_bit_identical_to_the_float(self, family, q, p):
        two = FamilyTag.parse(family).two_parameter

        def outcomes(scalar):
            params = DeformationParams(q=scalar(q), p=scalar(p) if two else None)
            cs, pair = coefficients(family, params), gh_pair(family, params)
            calls = [lambda n=n: phi_closed(family, params, n) for n in (0, 1, 7, 60, 300)]
            calls += [lambda n=n: energy(family, params, n) for n in (0, 7, 300)]
            calls += [lambda fn=fn, n=n: fn(n)
                      for fn in (cs.f, cs.g, cs.h, cs.k) for n in (-1, 0, 7, 300)]
            calls += [lambda fn=fn, n=n: fn(n) for fn in (pair.G, pair.H) for n in (0, 7, 300)]
            calls.append(lambda: phi_from_gh(pair.G, pair.H, 40))
            calls.append(lambda: [report.residual for report in _verified(
                build_rep(family, params, 30))])
            if not two:
                calls.append(lambda: degeneracy_equation(family, scalar(q), 10, 0))
            return [_numpy_outcome(call) for call in calls]

        assert outcomes(np.float64) == outcomes(float)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fn,args", [
        (bracket_q, (3, np.float32(1.1))),
        (bracket_q, (3, np.float16(1.1))),
        (bracket_q, (3, np.float32(-1.1))),
        (bracket_pq, (3, np.float32(1.1), 0.9)),
        (bracket_sym, (3, np.float32(1.1))),
        (bracket_sym, (3, UNIT_COMPLEX64)),
        (phi_symmetrized, ("A", np.float32(1.1), 3)),
        (phi_symmetrized, ("A", np.complex64(1.1), 3)),
        (phi_symmetrized, ("A", UNIT_COMPLEX64, 3)),
        (symmetrized_routes, ("B", np.float32(1.1), 3)),
        (phi_symmetrized_qp, ("At", np.float32(1.2), 0.9, 3)),
        (phi_symmetrized_qp, ("At", np.complex64(1.3 + 0.5j), np.complex64(1.3 - 0.5j), 3)),
    ], ids=lambda value: value.__name__ if callable(value) else None)
    def test_brackets_and_symmetrized_forms_take_the_python_number(self, fn, args):
        # a float32 met _MAX_FLOAT cast to float32: "overflow encountered in cast"; an
        # np.complex64 q was refused as "phi_symmetrized requires real q"
        plain = [arg.item() if isinstance(arg, np.generic) else arg for arg in args]
        assert _numpy_outcome(lambda: fn(*args)) == _numpy_outcome(lambda: fn(*plain))

    def test_a_complex64_off_the_unit_circle_is_refused_as_such(self):
        # single precision holds exp(0.3j) only to about 2e-8
        with pytest.raises(DomainError, match=r"^complex q must lie on the unit circle, "
                                              r"got \|q\| = 1.0000000238531952$"):
            phi_symmetrized("A", UNIT_COMPLEX64, 3)


# each public function that takes a level, as (family, q, n) -> value
LEVEL_CALLS = {
    "phi_closed": lambda family, q, n: phi_closed(family, q, n),
    "energy": lambda family, q, n: energy(family, q, n),
    "degeneracy_equation n": lambda family, q, n: degeneracy_equation(family, q, n, 0),
    "degeneracy_equation m": lambda family, q, n: degeneracy_equation(family, q, 1, n),
    "bracket_q": lambda family, q, n: bracket_q(n, q),
    "bracket_pq": lambda family, q, n: bracket_pq(n, q, 0.9),
    "bracket_pq at p = q": lambda family, q, n: bracket_pq(n, q, q),
    "bracket_sym": lambda family, q, n: bracket_sym(n, q),
    "phi_symmetrized": lambda family, q, n: phi_symmetrized(family, q, n),
    "symmetrized_routes": lambda family, q, n: symmetrized_routes(family, q, n),
    "phi_symmetrized_qp": lambda family, q, n: phi_symmetrized_qp(family + "t", q, 0.9, n),
}


class TestNumpyIntegerLevels:
    """A numpy integer level counts as the int it holds: the kernels see the int, so numpy
    does no power, and values, types and refusals are those of the int call."""

    @pytest.mark.parametrize("scalar", [np.int64, np.int32])
    @pytest.mark.parametrize("name", LEVEL_CALLS)
    def test_same_bits_and_type_as_the_int(self, name, scalar):
        call = LEVEL_CALLS[name]
        for family in ONE_PARAM:
            for q in (0.5, 0.9, 1.015, 1.5):
                for n in range(0, 120, 9):
                    assert _numpy_outcome(lambda: call(family, q, scalar(n))) == \
                        _numpy_outcome(lambda: call(family, q, n)), (family, q, n)

    @pytest.mark.parametrize("name", LEVEL_CALLS)
    def test_an_out_of_range_level_is_the_int_calls_refusal_without_warnings(self, name):
        # a numpy level that reached the kernels' powers made numpy warn "overflow encountered
        # in power" before the range refusal, and the refusal printed np.int64(5000)
        call = LEVEL_CALLS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = _numpy_outcome(lambda: call("A", 1.2, np.int64(5000)))
            assert outcome == _numpy_outcome(lambda: call("A", 1.2, 5000))
        assert outcome[:2] == ("raises", DomainError) and "5000" in outcome[2]
        assert "np.int64" not in outcome[2]


def _verified(rep):
    return verify_heisenberg(rep), verify_gh_relation(rep), verify_ladder(rep)


class TestPhiClosed:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_vanishes_at_zero(self, family):
        assert phi_closed(family, params_for(family, 1.37), 0) == 0.0

    def test_undeformed_limit_is_identity(self):
        for n in (0, 1, 7, 41):
            assert phi_closed("A", 1.0, n) == float(n)

    def test_first_level_family_a(self):
        # 2/(q (1 + q**2)) at q = 2
        assert phi_closed("A", 2.0, 1) == pytest.approx(0.2, rel=1e-15)

    @pytest.mark.parametrize("family", ONE_PARAM)
    @pytest.mark.parametrize("q", Q_GRID)
    def test_positive(self, family, q):
        for n in range(1, 61):
            assert phi_closed(family, q, n) > 0.0

    @pytest.mark.parametrize("family", TWO_PARAM)
    @pytest.mark.parametrize("q", Q_GRID)
    def test_p_equal_one_reduces_to_one_parameter(self, family, q):
        reduced = FamilyTag.parse(family).letter
        for n in range(0, 61):
            two = phi_closed(family, DeformationParams(q=q, p=1.0), n)
            one = phi_closed(reduced, q, n)
            assert rel_err(two, one) <= 1e-12

    @pytest.mark.parametrize("family", TWO_PARAM)
    def test_p_equal_q_scales_the_identity(self, family):
        q = 1.7
        for n in range(0, 20):
            assert phi_closed(family, DeformationParams(q=q, p=q), n) == n / q

    def test_arity_mismatch(self):
        with pytest.raises(DomainError):
            phi_closed("A", DeformationParams(q=1.1, p=1.2), 3)
        with pytest.raises(DomainError):
            phi_closed("At", 1.1, 3)

    def test_general_constants_have_no_closed_form(self):
        fam = FamilyId(FamilyTag.A, c0=2.0)
        with pytest.raises(DomainError):
            phi_closed(fam, 1.1, 3)

    @pytest.mark.parametrize("fam", [
        FamilyId(FamilyTag.A, c0=2.0), FamilyId(FamilyTag.C, d0=0.5),
        FamilyId(FamilyTag.BT, c0=1.5, d0=1.5),
    ])
    def test_custom_constants_are_refused_after_the_parameter_checks(self, fam):
        params = DeformationParams(q=1.1, p=1.2 if fam.two_parameter else None)
        with pytest.raises(DomainError, match=r"^phi_closed covers the printed families"):
            phi_closed(fam, params, 3)
        with pytest.raises(DomainError, match=r"^level must be >= 0, got -1$"):
            phi_closed(fam, params, -1)
        with pytest.raises(DomainError, match=r"^phi_closed requires finite q > 0, got -1.0$"):
            phi_closed(fam, DeformationParams(q=-1.0, p=params.p), 3)

    def test_rejects_negative_level(self):
        with pytest.raises(DomainError):
            phi_closed("A", 1.1, -2)

    @pytest.mark.parametrize("n,message", [
        (True, "level must be an integer, got True"),
        (-1, "level must be >= 0, got -1"),
        (np.int8(-1), "level must be >= 0, got -1"),
        (3.0, "level must be an integer, got 3.0"),
    ])
    def test_level_refusals_around_the_int_fast_path(self, n, message):
        with pytest.raises(DomainError, match=rf"^{message}$"):
            phi_closed("A", 1.1, n)

    def test_numpy_integer_level(self):
        assert phi_closed("A", 1.1, np.int64(3)) == phi_closed("A", 1.1, 3)

    @pytest.mark.parametrize("q", (math.inf, math.nan))
    def test_rejects_non_finite_parameters(self, q):
        with pytest.raises(DomainError, match="finite q"):
            phi_closed("A", q, 5)
        with pytest.raises(DomainError, match="finite p"):
            phi_closed("At", DeformationParams(q=1.1, p=q), 5)

    @pytest.mark.parametrize("family,q,n", [
        ("A", 0.5, 3000), ("A", 0.5, 600), ("B", 2.0, 3000),
        ("A", 1.5, 439), ("A", 1.5, 600),  # below the smallest normal double, then 0.0
    ])
    def test_out_of_range_names_the_level(self, family, q, n):
        with pytest.raises(DomainError, match=rf"phi\({n}\) leaves the double-precision range"):
            phi_closed(family, q, n)

    @pytest.mark.parametrize("family", ONE_PARAM)
    @pytest.mark.parametrize("call", [
        lambda family, n: phi_closed(family, 3, n),
        lambda family, n: energy(family, 3, n),
        lambda family, n: degeneracy_equation(family, 3, n, 0),
    ])
    def test_an_int_q_out_of_range_is_refused_before_its_exact_powers(self, family, call):
        # 3**(2n) alone would be an int of 9.5 million digits
        start = time.perf_counter()
        with pytest.raises(DomainError,
                           match=r"^phi\(10000000\) leaves the double-precision range at base 3$"):
            call(family, 10**7)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("family", ONE_PARAM)
    @pytest.mark.parametrize("q", (2, 3, 10, 1000))
    def test_an_int_q_is_refused_from_the_level_its_float_is(self, family, q):
        def first_refused(base):
            for n in range(1, 2000):
                try:
                    phi_closed(family, base, n)
                except DomainError:
                    return n
        assert first_refused(q) == first_refused(float(q)) is not None

    def test_the_kernel_alone_keeps_an_underflowing_value(self):
        # the min-normal refusal belongs to phi_closed's kernel, not to
        # _phi_power_base, whose symmetrized callers average an underflowing term
        assert 0.0 <= dsf._phi_power_base("A", 1.5, 439) < 2.0**-1022
        with pytest.raises(DomainError, match=r"^phi\(439\) leaves the double-precision range"):
            dsf._phi_at("A", 1.5, 439)
        assert dsf._phi_at("A", 1.5, 438) == phi_closed("A", 1.5, 438)

    @pytest.mark.parametrize("family,q,n", [
        # (1 + x**(2n-2)) (1 + x**(2n)) overflows from n = 439
        ("A", "3/2", 438), ("C", "3/2", 439), ("D", "3/2", 439),
        ("C", "3/2", 900),  # the numerator overflows
        ("B", "1/2", 216),  # x**(5n-3) underflows to 0.0
        ("B", "3/5", 285),  # x**(5n-3) is subnormal
    ])
    def test_intermediate_out_of_range_keeps_a_normal_phi(self, family, q, n):
        # phi(n) is a normal double although a power on the way is not; the
        # exact rational closed form is the oracle
        a, b = {"A": (-1, 0), "B": (5, -3), "C": (2, -3), "D": (2, 0)}[family]
        x = Fraction(q)
        exact = (2 * x ** (a * n + b) * (1 - x**n) / (1 - x) * (1 + x ** (1 - n))
                 / ((1 + x ** (2 * n - 2)) * (1 + x ** (2 * n))))
        assert rel_err(phi_closed(family, float(x), n), float(exact)) <= 1e-13


def _checked_phi(family, params, n):
    """phi_closed without its accept test: the four checks in order, then the kernel."""
    family = FamilyId.parse(family)
    params = dsf._as_params(params)
    n = dsf._check_level(n)
    dsf._check_family_params(family, params, "phi_closed", printed=True)
    return dsf._phi_at(family.tag.letter, params.power_base, n, params.p or 1.0)


class _SubId(FamilyId):
    pass


class _SubParams(DeformationParams):
    """A stricter subclass: the accept test must not take it for a DeformationParams."""

    def require_real_positive(self, context="this operation"):
        raise DomainError(f"{context} refuses {type(self).__name__}")


ACCEPT_FAMILIES = (
    "A", "bt", "C~", "D\u0303", " a ", "E", None, 3, FamilyTag.B, FamilyId(FamilyTag.AT),
    FamilyId(FamilyTag.D), _SubId(FamilyTag.A), _SubId(FamilyTag.CT),
    FamilyId(FamilyTag.A, c0=2.0), FamilyId(FamilyTag.BT, d0=0.5),
)
ACCEPT_QS = (1.1, 0.5, 1.0, 3, np.float64(0.9), np.float32(1.1), True, Fraction(11, 10),
             Decimal("1.1"), 1.1 + 0j, math.nan, math.inf, -1.0, 0.0, 5e-324, 1e308)
ACCEPT_PS = (None, 0.9, 1e-300, 1e300, math.inf, math.nan, -0.9, 3, np.float64(0.9), 0.9 + 0j)
ACCEPT_PARAMS = tuple(DeformationParams(q, p) for q in ACCEPT_QS for p in ACCEPT_PS) + (
    1.1, 3, np.float64(1.1), "1.1", None, _SubParams(1.1), _SubParams(1.1, 0.9),
)
ACCEPT_LEVELS = (0, 1, 60, 3000, -1, True, 3.0, "5", np.int64(7), np.int32(-1),
                 dsf._MAX_LEVEL, dsf._MAX_LEVEL + 1)


class TestPhiClosedAcceptTest:
    """phi_closed accepts the common call in one inline test and refers every other call
    to its four checks, so each outcome, value or refusal, is that of the checks."""

    def test_every_outcome_is_that_of_the_checks(self):
        # a FamilyId subclass, c0 or d0 != 1, numpy, int, bool and complex q or p, a bool
        # level, arity mismatches and a Q = q/p beyond the double range (1e308/1e-300, and
        # 5e-324/1e300 at 0.0) all take the checks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family in ACCEPT_FAMILIES:
                for params in ACCEPT_PARAMS:
                    for n in ACCEPT_LEVELS:
                        assert _numpy_outcome(lambda: phi_closed(family, params, n)) == \
                            _numpy_outcome(lambda: _checked_phi(family, params, n)), \
                            (family, params, n)

    def test_the_common_call_runs_no_check(self, monkeypatch):
        two, bt = DeformationParams(q=1.1, p=0.9), FamilyId(FamilyTag.BT)
        expected = phi_closed("Bt", two, 5).hex()

        class CheckRan(Exception):
            pass

        def check(*args, **kwargs):
            raise CheckRan

        for name in ("_as_params", "_check_level", "_check_family_params"):
            monkeypatch.setattr(dsf, name, check)
        monkeypatch.setattr(FamilyId, "parse", check)
        assert phi_closed("Bt", two, 5).hex() == phi_closed(bt, two, 5).hex() == expected
        for params in (3, DeformationParams(q=3)):  # an int q
            with pytest.raises(CheckRan):
                phi_closed("A", params, 5)


class TestPhiFromGH:
    def test_undeformed_oscillator(self):
        assert phi_from_gh(lambda n: 1.0, lambda n: 1.0, 5) == 5.0

    def test_constant_q_weights(self):
        # G = H = q gives phi(n) = n/q
        assert phi_from_gh(lambda n: 2.0, lambda n: 2.0, 4) == 2.0

    def test_matches_closed_form_family_a(self):
        params = DeformationParams(q=1.015)
        pair = gh_pair("A", params)
        reference = phi_closed("A", params, 10)
        assert rel_err(phi_from_gh(pair.G, pair.H, 10), reference) <= 1e-12

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", (0.9, 1.015, 1.4))
    def test_matches_closed_form_everywhere(self, family, q):
        params = params_for(family, q)
        pair = gh_pair(family, params)
        for n in range(0, 61):
            assert rel_err(phi_from_gh(pair.G, pair.H, n),
                           phi_closed(family, params, n)) <= 1e-10

    def test_zero_start(self):
        assert phi_from_gh(lambda n: 1.0, lambda n: 1.0, 0) == 0.0

    def test_reads_no_g_at_zero(self):
        # G(0) only ever multiplies phi(0) = 0; G(n) = 1/n must not be called there
        assert phi_from_gh(lambda n: 1.0 / n, lambda n: 1.0, 3) == 2.0

    def test_singular_names_the_index(self):
        # G(k) = 0 is regular for the recurrence: phi = 1, 2, 1, 2, 3
        assert phi_from_gh(lambda n: 0.0 if n == 2 else 1.0, lambda n: 1.0, 5) == 3.0
        with pytest.raises(SingularRecipeError) as err:
            phi_from_gh(lambda n: 1.0, lambda n: 0.0 if n == 3 else 1.0, 5)
        assert err.value.index == 3
        assert err.value.which == "H"
        with pytest.raises(SingularRecipeError) as err:
            phi_from_gh(lambda n: 1.0, lambda n: 0.0, 1)
        assert err.value.index == 0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", (0.9, 1.1))
    def test_matches_closed_form_past_level_200(self, family, q):
        params = params_for(family, q)
        pair = gh_pair(family, params)
        assert rel_err(phi_from_gh(pair.G, pair.H, 400), phi_closed(family, params, 400)) <= 1e-12

    def test_overflow_names_the_level(self):
        pair = gh_pair("A", 0.5)
        with pytest.raises(DomainError, match=r"phi\(\d+\) leaves the double-precision range"):
            phi_from_gh(pair.G, pair.H, 1200)

    def test_operator_overflow_names_the_function_and_level(self):
        # H(n) holds x**(-2n) at base 0.5, which raises OverflowError from n = 256
        pair = gh_pair("B", 0.5)
        with pytest.raises(DomainError, match=r"^H\(256\) leaves the double-precision range$"):
            phi_from_gh(pair.G, pair.H, 400)
        with pytest.raises(DomainError, match=r"^G\(2\) leaves the double-precision range$"):
            phi_from_gh(lambda n: 2.0 ** (600 * n), lambda n: 1.0, 5)
        # a G or H that divides by zero is named the same way, not a raw ZeroDivisionError
        with pytest.raises(DomainError, match=r"^G\(2\) leaves the double-precision range$"):
            phi_from_gh(lambda n: 1 / (n - 2), lambda n: 1.0, 5)
        with pytest.raises(DomainError, match=r"^H\(3\) leaves the double-precision range$"):
            phi_from_gh(lambda n: 1.0, lambda n: 1 / (n - 3), 5)

    @pytest.mark.parametrize("G,H,stage", [
        # an infinite H(2) gave phi(3) = 0.0 and a silent 2.0 at n = 5
        (lambda n: 1.0, lambda n: math.inf if n == 2 else 1.0, "H(2)"),
        (lambda n: 1.0, lambda n: -math.inf if n == 0 else 1.0, "H(0)"),
        (lambda n: 1.0, lambda n: math.nan if n == 4 else 1.0, "H(4)"),
        # a non-finite G(2) was reported as phi(3)
        (lambda n: math.inf if n == 2 else 1.0, lambda n: 1.0, "G(2)"),
        (lambda n: math.nan if n == 1 else 1.0, lambda n: 1.0, "G(1)"),
        # finite G and H whose phi overflows: the recipe's own value is named
        (lambda n: 1.0, lambda n: 5e-324 if n == 0 else 1.0, "recipe phi(1)"),
        (lambda n: 1e300, lambda n: 1e-10, "recipe phi(2)"),
    ])
    def test_non_finite_operator_names_the_function_and_level(self, G, H, stage):
        with pytest.raises(DomainError, match=rf"^{re.escape(stage)} leaves the double-precision "
                                              r"range$"):
            phi_from_gh(G, H, 5)
        # the rule verify_gh_relation applies to the same pair
        if not stage.startswith("recipe"):
            rep = build_rep("A", 1.0, 5)
            with pytest.raises(DomainError, match=rf"^{re.escape(stage)} leaves"):
                verify_gh_relation(rep, GHPair(G=G, H=H))

    @given(st.sampled_from(ALL_FAMILIES),
           st.floats(min_value=0.85, max_value=1.25),
           st.integers(min_value=0, max_value=40))
    def test_defining_identity(self, family, q, n):
        # H(n) phi(n+1) - G(n) phi(n) = 1 is what the reconstruction must solve
        params = params_for(family, q)
        pair = gh_pair(family, params)
        lhs = pair.H(n) * phi_from_gh(pair.G, pair.H, n + 1) \
            - pair.G(n) * phi_from_gh(pair.G, pair.H, n)
        assert lhs == pytest.approx(1.0, rel=1e-9)


def _prefix_levels(fn, stage, levels):
    """dsf._levels as it was, on the partial table of prefix_table."""
    values = prefix_table(fn, levels)
    if len(values) == len(levels) and all(map(cmath.isfinite, values)):
        return values
    bad = next(n for n, value in zip(levels, values + [math.inf]) if not cmath.isfinite(value))
    raise DomainError(f"{stage}({bad}) leaves the double-precision range")


def _table_outcome(table, fn, levels):
    """("returns", the reprs of table(fn, "G", levels)) or ("raises", type, message)."""
    try:
        return "returns", [repr(value) for value in table(fn, "G", levels)]
    except DomainError as exc:
        return "raises", type(exc), str(exc)


class TestLevelsReference:
    """dsf._levels, one walk that stops at the first bad level, against the pair it replaced."""

    BAD = (math.inf, -math.inf, math.nan, complex(math.inf, 1), complex(1, math.nan),
           OverflowError, ZeroDivisionError)

    @staticmethod
    def _closure(bad_at):
        def fn(n):
            bad = bad_at.get(n)
            if bad is None:
                return 1.5 ** n if n % 3 else complex(n, -n)
            if isinstance(bad, (float, complex)):
                return bad
            raise bad("at the chosen level")
        return fn

    @pytest.mark.parametrize("levels", [range(0), range(0, 1), range(0, 7), range(-1, 9),
                                        range(3, 4), range(0, 301)], ids=repr)
    def test_one_and_two_bad_levels(self, levels):
        cases = [{}]
        cases += [{n: bad} for n in list(levels)[:12] + list(levels)[-3:] for bad in self.BAD]
        rng = random.Random(len(levels))
        cases += [{rng.choice(levels): rng.choice(self.BAD) for _ in range(2)}
                  for _ in range(60) if len(levels)]
        for bad_at in cases:
            fn = self._closure(bad_at)
            assert _table_outcome(dsf._levels, fn, levels) == _table_outcome(
                _prefix_levels, fn, levels), bad_at

    def test_a_closure_of_the_package(self):
        pair = gh_pair("B", 0.5)  # H(n) raises OverflowError from n = 256
        for levels in (range(0, 255), range(0, 300), range(250, 260)):
            assert _table_outcome(dsf._levels, pair.H, levels) == _table_outcome(
                _prefix_levels, pair.H, levels)


class TestPhiRatio:
    def test_family_b_first_level(self):
        assert phi_ratio_check("B", "A", 1.1, 1) == pytest.approx(1.1**3, rel=1e-12)

    def test_family_c_first_level_is_unity(self):
        for q in Q_GRID:
            assert phi_ratio_check("C", "A", q, 1) == pytest.approx(1.0, rel=1e-12)

    def test_two_parameter_ratio(self):
        params = DeformationParams(q=1.2, p=1.1)
        expected = (1.2 / 1.1) ** 6
        assert phi_ratio_check("Dt", "At", params, 2) == pytest.approx(expected, rel=1e-12)

    def test_rejects_level_zero(self):
        with pytest.raises(DomainError):
            phi_ratio_check("B", "A", 1.1, 0)

    def test_rejects_mixed_arity(self):
        with pytest.raises(DomainError):
            phi_ratio_check("Bt", "A", DeformationParams(q=1.1, p=1.2), 3)

    @pytest.mark.parametrize("family,exponent", [
        ("B", lambda n: 3 * (2 * n - 1)),
        ("C", lambda n: 3 * (n - 1)),
        ("D", lambda n: 3 * n),
    ])
    @pytest.mark.parametrize("q", Q_GRID)
    def test_power_laws(self, family, exponent, q):
        for n in range(1, 61):
            assert rel_err(phi_ratio_check(family, "A", q, n), q ** exponent(n)) <= 1e-12


class TestStructureFunction:
    def test_closed_and_recipe_agree(self):
        params = DeformationParams(q=1.05)
        closed = StructureFunction.closed_form("C", params)
        recipe = StructureFunction.from_gh("C", params)
        assert closed.kind == "closed-form"
        assert recipe.kind == "recipe"
        for n in range(0, 30):
            assert rel_err(recipe(n), closed(n)) <= 1e-10

    def test_symmetrized_kind(self):
        sf = StructureFunction.symmetrized("A", 1.1)
        assert sf.kind == "symmetrized"
        assert sf(0) == 0.0
        assert sf(4) == pytest.approx(sf(4))  # evaluates real

    def test_vanishes_at_zero_for_all_kinds(self):
        params = DeformationParams(q=1.2)
        assert StructureFunction.closed_form("B", params)(0) == 0.0
        assert StructureFunction.from_gh("B", params)(0) == 0.0


BEYOND = 10**400  # an int beyond the double range
HUGE = 10**5000  # an int past the 4 300-digit int-to-str limit
LAST = dsf._MAX_LEVEL  # the largest level the checks accept


class TestDomainContract:
    """Every entry refuses a value outside its domain with a short DomainError."""

    @pytest.mark.parametrize("call", [
        # these raised OverflowError: a level or parameter reached a float conversion
        lambda: phi_closed("A", 1.1, BEYOND),
        lambda: energy("A", 1.1, BEYOND),
        lambda: degeneracy_equation("A", 1.1, BEYOND, 0),
        lambda: bracket_sym(3, BEYOND),
        # these raised AttributeError, AttributeError and TypeError at _require_nonzero
        lambda: bracket_sym(3, "1.1"),
        lambda: bracket_sym(3, None),
        lambda: bracket_sym(3, Decimal("1.1")),
        lambda: phi_symmetrized("A", BEYOND, 3),
        lambda: phi_symmetrized_qp("At", BEYOND, 1.0, 3),
        lambda: phi_symmetrized_qp("At", 1.1, 0.9, BEYOND),
        # these raised ValueError while their message was formatted
        lambda: phi_closed("A", HUGE, 3),
        lambda: phi_closed(HUGE, 1.1, 3),
        lambda: build_rep("A", 1.1, HUGE),
        lambda: spectrum("A", 1.1, -HUGE),
        lambda: bracket_q(3, HUGE),
        lambda: bracket_pq(3, HUGE, 1.0),
        lambda: ground_state_table(HUGE),
        lambda: verify_ratio_recursions(coefficients("A", 1.1), 1.1, -HUGE),
        lambda: find_degeneracy("A", 10, 0, (1.001, HUGE), 1e-6),
        lambda: find_degeneracy("A", 10, 0, (-HUGE, 1.5), 1e-6),
        lambda: find_degeneracy("A", 10, 0, (1.001, 1.5), 1e-6, grid=HUGE),
        lambda: find_degeneracy("A", 10, 0, (1.001, 1.5), 1e-6, grid=-HUGE),
        lambda: find_degeneracy("A", 10, 0, (1.001, 1.5), HUGE),
        lambda: find_degeneracy("A", 10, 0, (1.001, 1.5), -HUGE),
    ])
    def test_refusal_is_a_short_domain_error(self, call):
        with pytest.raises(DomainError) as err:
            call()
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize("call,value", [
        (lambda: bracket_q(3, BEYOND), "bracket_q requires finite q > 0, got an int of 401 digits"),
        # these reported that phi(3) leaves the double-precision range at base (inf+0j)
        # and at base (nan+1j)
        (lambda: phi_symmetrized("A", math.inf, 3), "phi_symmetrized requires finite q > 0, got inf"),
        (lambda: phi_symmetrized("A", complex(math.nan, 1), 3),
         "phi_symmetrized requires finite q != 0, got (nan+1j)"),
        (lambda: find_degeneracy("A", 10, 0, (-HUGE, 1.5), 1e-6),
         "search interval must satisfy 0 < q_lo < q_hi, got (a negative int of 5001 digits, 1.5)"),
        (lambda: find_degeneracy("A", 10, 0, (1.001, 1.5), HUGE),
         "tol must be finite, got an int of 5001 digits"),
    ])
    def test_parameters_are_refused_as_parameters(self, call, value):
        with pytest.raises(DomainError, match=f"^{re.escape(value)}$"):
            call()

    @pytest.mark.parametrize("call,value", [
        # these raised TypeError or AttributeError at a comparison or at .real; a Decimal
        # in bracket_q, bracket_pq and phi_symmetrized returned a value
        (lambda: phi_closed("A", "1.1", 3), "phi_closed requires real q, got '1.1'"),
        (lambda: phi_closed("A", None, 3), "phi_closed requires real q, got None"),
        (lambda: spectrum("A", Decimal("1.1"), 3), "phi_closed requires real q, got Decimal('1.1')"),
        (lambda: build_rep("A", Decimal("1.1"), 5), "phi_closed requires real q, got Decimal('1.1')"),
        (lambda: ground_state_table(Decimal("1.1")),
         "ground_state_table requires real q, got Decimal('1.1')"),
        (lambda: degeneracy_equation("A", "1.1", 3, 0), "phi_closed requires real q, got '1.1'"),
        (lambda: phi_closed("At", DeformationParams(1.1, "0.9"), 3),
         "phi_closed requires real p, got '0.9'"),
        (lambda: bracket_q(3, "1.1"), "bracket_q requires real q, got '1.1'"),
        (lambda: bracket_q(3, Decimal("1.1")), "bracket_q requires real q, got Decimal('1.1')"),
        (lambda: bracket_pq(3, 1.1, Decimal("0.9")),
         "bracket_pq requires real p, got Decimal('0.9')"),
        (lambda: bracket_sym(3, "1.1"), "bracket_sym requires real or complex q, got '1.1'"),
        (lambda: bracket_sym(3, Decimal("1.1")),
         "bracket_sym requires real or complex q, got Decimal('1.1')"),
        (lambda: phi_symmetrized("A", "1.1", 3), "phi_symmetrized requires real q, got '1.1'"),
        (lambda: phi_symmetrized("A", Decimal("1.1"), 3),
         "phi_symmetrized requires real q, got Decimal('1.1')"),
        (lambda: phi_symmetrized_qp("At", 1.1, "0.9", 3),
         "phi_symmetrized_qp requires real p, got '0.9'"),
        (lambda: verify_heisenberg(build_rep("A", 1.1, 5), "1e-10"), "tol must be real, got '1e-10'"),
        (lambda: find_degeneracy("A", 3, 0, ("0.5", "2"), 1e-7),
         "search endpoints must be real, got ('0.5', '2')"),
        (lambda: find_degeneracy("A", 3, 0, (0.5, 2.0), None), "tol must be real, got None"),
    ])
    def test_a_non_real_value_is_refused_as_not_real(self, call, value):
        with pytest.raises(DomainError, match=f"^{re.escape(value)}$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: phi_symmetrized("A", 1.1 + 0j, 3),
        lambda: phi_symmetrized_qp("At", 1.1 + 0j, 0.9, 3),
    ])
    def test_a_complex_value_with_a_zero_imaginary_part_counts_as_real(self, call):
        assert math.isfinite(call())

    @pytest.mark.parametrize("call", [
        lambda n: phi_closed("B", 1.0, n),
        lambda n: degeneracy_equation("A", 1.0, n, 0),
        lambda n: degeneracy_equation("A", 1.0, 0, n),
        lambda n: bracket_q(n, 0.5),
        lambda n: bracket_pq(n, 0.5, 0.25),
        lambda n: bracket_sym(n, 1.0),
        lambda n: phi_symmetrized("A", 1.0, n),
        lambda n: phi_symmetrized_qp("At", 1.0, 1.0, n),
    ])
    def test_the_level_bound_is_sys_float_info_max_over_8(self, call):
        assert math.isfinite(call(LAST))
        with pytest.raises(DomainError, match=rf"^level must be <= sys.float_info.max / 8, "
                                              rf"got {LAST + 1}$"):
            call(LAST + 1)

    def test_the_bound_is_exact(self):
        assert LAST == sys.float_info.max / 8 and type(LAST) is int

    def test_energy_reads_one_level_above_its_own(self):
        # E(n) reads phi(n + 1): its last level is one below the bound, and the refusal
        # names the level it reads
        assert energy("A", 1.0, LAST - 1) == LAST - 0.5
        with pytest.raises(DomainError, match=rf"^level must be <= .*, got {LAST + 1}$"):
            energy("A", 1.0, LAST)
        with pytest.raises(DomainError, match=rf"^level must be <= .*, got {LAST + 1}$"):
            energy("A", 1.0, LAST + 1)

    def test_a_level_below_the_bound_gives_a_value_or_a_range_refusal(self):
        # every exponent still converts to a float, so the kernels decide
        assert phi_closed("B", 1.0, 10**300) == 1e300
        with pytest.raises(DomainError, match=r"^phi\(\d+\) leaves the double-precision range"):
            phi_closed("B", 1.1, LAST)

    @pytest.mark.parametrize("value", [1.5, -0.0, math.nan, 2 + 1j, "a~", 42, -7, True,
                                       sys.float_info.max, int(sys.float_info.max), (1.001, 2.5)])
    def test_show_is_the_repr_of_an_ordinary_value(self, value):
        assert dsf._show(value) == repr(value)

    @pytest.mark.parametrize("value,shown", [
        (int(sys.float_info.max) + 1, "an int of 309 digits"),
        (BEYOND, "an int of 401 digits"),
        (BEYOND - 1, "an int of 400 digits"),
        (-HUGE, "a negative int of 5001 digits"),
        ((1.001, HUGE), "(1.001, an int of 5001 digits)"),
    ], ids=["max_plus_1", "10**400", "10**400-1", "-10**5000", "tuple"])
    def test_show_shortens_an_int_beyond_the_double_range(self, value, shown):
        assert dsf._show(value) == shown


FRACTION_BEYOND = Fraction(10**400, 3)  # float() of it raises OverflowError


class TestFractionsBeyondTheDoubleRange:
    """A Fraction that no double holds is refused as not finite, with a short message."""

    @pytest.mark.parametrize("call,message", [
        (lambda: phi_closed("A", FRACTION_BEYOND, 3),
         "phi_closed requires finite q > 0, got a Fraction near 3.3e+399"),
        (lambda: phi_closed("A", -FRACTION_BEYOND, 3),
         "phi_closed requires finite q > 0, got a Fraction near -3.3e+399"),
        (lambda: phi_closed("At", DeformationParams(q=1.1, p=FRACTION_BEYOND), 3),
         "phi_closed requires finite p > 0, got a Fraction near 3.3e+399"),
        (lambda: coefficients("B", FRACTION_BEYOND),
         "coefficients requires finite q > 0, got a Fraction near 3.3e+399"),
        (lambda: ground_state_table(FRACTION_BEYOND),
         "ground_state_table requires finite q > 0, got a Fraction near 3.3e+399"),
        (lambda: bracket_q(3, Fraction(10**5000, 3)),
         "bracket_q requires finite q > 0, got a Fraction near 3.3e+4999"),
        (lambda: bracket_pq(3, 1.1, FRACTION_BEYOND),
         "bracket_pq requires finite p > 0, got a Fraction near 3.3e+399"),
        (lambda: bracket_sym(3, FRACTION_BEYOND),
         "bracket_sym requires finite q != 0, got a Fraction near 3.3e+399"),
    ])
    def test_refusal_is_a_short_domain_error(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
            call()
        assert len(str(err.value)) < 200

    def test_the_fraction_is_kept_unconverted(self):
        assert DeformationParams(q=FRACTION_BEYOND).q is FRACTION_BEYOND

    def test_a_fraction_in_range_is_its_float(self):
        assert DeformationParams(q=Fraction(3, 2)).q == 1.5
        assert phi_closed("A", Fraction(3, 2), 3) == 0.05412597168930145

    @pytest.mark.parametrize("value,shown", [
        (Fraction(10**400, 3), "a Fraction near 3.3e+399"),
        (Fraction(-10**5000, 7), "a Fraction near -1.4e+4999"),
        (Fraction(1, 10**400), "a Fraction near 1e-400"),
        ((2, Fraction(1, 10**5000)), "(2, a Fraction near 1e-5000)"),
    ])
    def test_show_shortens_a_fraction_of_huge_terms(self, value, shown):
        assert dsf._show(value) == shown

    def test_show_keeps_the_repr_of_an_ordinary_fraction(self):
        assert dsf._show(Fraction(3, 2)) == "Fraction(3, 2)"
