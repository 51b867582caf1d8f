"""Exception types shared across the package, its ceilings and the exact division."""

#: Largest n of any exhaustive enumeration (avoiders or trees) unless the caller raises it.
DEFAULT_CEILING = 12

#: Largest n of the series and convolution rows of ``counting._ROUTES`` and of ``verify --suite
#: sequences``, whose blocked solver is quadratic in big integers (3.5-4 s CPU each at 2 500).
QUADRATIC_CEILING = 2500


class InvalidPermutationError(ValueError):
    """Raised when a value sequence is not a permutation of 1..n."""


class InvalidTreeError(ValueError):
    """Raised when a labeled plane tree is structurally invalid (e.g. negative label)."""


class TreeParseError(ValueError):
    """Raised on malformed tree text: ``reason`` at ``position``, the error's 0-based offset."""

    def __init__(self, reason: str, position: int):
        super().__init__(f"{reason} (at position {position})")
        self.reason, self.position = reason, position


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation.

    Examples: mapping a permutation that contains 1342, inverting a series
    with zero constant term, dividing a series by x^k when a low-order
    coefficient is nonzero (``index`` then carries the offending exponent).
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ResourceLimitError(RuntimeError):
    """An exhaustive computation was refused because n exceeds the configured ceiling."""


def refuse_above(n: int, ceiling: int, work: str = "exhaustive enumeration") -> None:
    """Refuse a negative n (``DomainError``) and an n above the ceiling (``ResourceLimitError``)."""
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if n > ceiling:
        raise ResourceLimitError(f"{work} refused for n={n} (ceiling {ceiling}); "
                                 "raise the ceiling explicitly to proceed")


class IntegralityError(ArithmeticError):
    """An exact division that is provably integral failed to be integral.

    This always signals a transcription bug in a formula, never bad user input.
    """


def exact_quotient(numerator: int, denominator: int, context: str) -> int:
    """numerator / denominator for a division known to be exact; else IntegralityError."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise IntegralityError(f"{context} is not an exact division by {denominator}")
    return quotient


class ReconstructionError(RuntimeError):
    """Internal inconsistency while rebuilding a permutation from a tree.

    Unreachable on valid input; raised instead of ever returning a wrong answer.
    """
