"""Exception types shared across the package, and the checked exact division."""


class InvalidPermutationError(ValueError):
    """Raised when a value sequence is not a permutation of 1..n."""


class InvalidTreeError(ValueError):
    """Raised when a labeled plane tree is structurally invalid (e.g. negative label)."""


class TreeParseError(ValueError):
    """Raised on malformed tree text. ``position`` is the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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
