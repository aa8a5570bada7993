import math

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

ONE_PARAM = ("A", "B", "C", "D")
TWO_PARAM = ("At", "Bt", "Ct", "Dt")
ALL_FAMILIES = ONE_PARAM + TWO_PARAM


def rel_err(value: float, reference: float) -> float:
    if reference == 0:
        return abs(value)
    return abs(value - reference) / abs(reference)


def assert_close(value, reference, rel=1e-12, abs_tol=0.0):
    assert math.isclose(value, reference, rel_tol=rel, abs_tol=abs_tol), (
        f"{value!r} != {reference!r} (rel_tol={rel}, abs_tol={abs_tol})"
    )


def prefix_table(fn, levels):
    """fn over levels, up to the first level where it raises OverflowError or
    ZeroDivisionError: the rule of the former dsf._prefix, kept as the reference of
    dsf._levels and families.verify_ratio_recursions."""
    try:
        return [fn(n) for n in levels]
    except (OverflowError, ZeroDivisionError):
        values = []
        for n in levels:
            try:
                values.append(fn(n))
            except (OverflowError, ZeroDivisionError):
                return values
        return values
