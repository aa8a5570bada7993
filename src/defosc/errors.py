"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "SingularRecipeError",
    "PoleError",
    "MetricError",
    "NoMetricError",
    "DegenerateOperatorError",
]


class DomainError(ValueError):
    """Argument or parameter outside the validity domain of an operation."""


class SingularRecipeError(DomainError):
    """The (G, H) reconstruction hit a zero denominator.

    Carries ``index`` (the offending level) and ``which`` ("G" or "H").
    """

    def __init__(self, which: str, index: int):
        self.which = which
        self.index = index
        super().__init__(f"{which}({index}) = 0: structure-function recipe is singular")


class PoleError(DomainError):
    """Closed-form evaluation landed on a pole of the deformation parameter."""

    def __init__(self, n: int, theta: float):
        self.n = n
        self.theta = theta
        super().__init__(
            f"structure function has a pole at n = {n} for unit-circle parameter "
            f"with theta = {theta!r}"
        )


class MetricError(RuntimeError):
    """No admissible diagonal metric for the requested operator."""


class NoMetricError(MetricError):
    """Entrywise metric conditions are inconsistent; carries the worst index."""

    def __init__(self, message: str, index: int):
        self.index = index
        super().__init__(f"{message} (worst index {index})")


class DegenerateOperatorError(MetricError):
    """Operator has a vanishing off-diagonal entry; metric recursion breaks down."""
