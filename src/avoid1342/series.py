"""Truncated formal power series over exact rationals, and the two generating functions.

A :class:`TruncatedSeries` knows its coefficients for x^0..x^order and nothing
beyond; binary operations truncate to the smaller order, and reading past the
order raises.  No floating point is used anywhere in this module.

The named series are computed on integers and wrapped into ``Fraction`` once,
at the end: (1-8x)^{3/2} by the ratio c_{n+1} = c_n·4(2n-3)/(n+1), and each
quotient num/den by solving den·h = num one coefficient at a time.  Every
division there is a checked exact division; a remainder raises
``IntegralityError``.  Each coefficient of a quotient, product, reciprocal or
square is one ``sum(map(mul, ...))`` over aligned slices, one of them
reversed, with zero padding in place of boundary branches.

The two series of interest:

* ``F_series`` -- coefficient of x^n counts indecomposable 1342-avoiding
  n-permutations: (8x^2 + 12x - 1 + (1-8x)^{3/2}) / (32x);
* ``H_series_*`` -- coefficient of x^n counts all 1342-avoiding
  n-permutations, computed by two independent routes that must agree:
  32x / (-8x^2 + 20x + 1 - (1-8x)^{3/2}), which equals 1/(1 - F), and
  ((1-8x)^{3/2} - 8x^2 + 20x + 1) / (2(x+1)^3).

``verify_H_algebraic`` checks the radical-free polynomial identity
((-8x^2 + 20x + 1)·H - 32x)^2 = (1-8x)^3·H^2 coefficient by coefficient,
forming each coefficient of a square from half its products.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence, Union

from .errors import DomainError, exact_quotient

#: Default working order for the series constructors.
DEFAULT_ORDER = 128

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients for x^0..x^order, exact rationals, immutable."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise DomainError("a truncated series needs at least the x^0 coefficient")

    @classmethod
    def from_coefficients(cls, values: Sequence[Scalar], order: int | None = None) -> "TruncatedSeries":
        """Build from leading coefficients, zero-padded up to ``order`` if given."""
        coeffs = [Fraction(v) for v in values]
        if order is not None:
            if order < 0:
                raise DomainError(f"order must be nonnegative, got {order}")
            if len(coeffs) > order + 1:
                coeffs = coeffs[: order + 1]
            coeffs.extend([Fraction(0)] * (order + 1 - len(coeffs)))
        return cls(tuple(coeffs))

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "TruncatedSeries":
        return cls.from_coefficients([value], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        """The x^n coefficient; reading beyond the order is refused."""
        if not 0 <= n <= self.order:
            raise DomainError(f"coefficient x^{n} is outside the known order {self.order}", index=n)
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise DomainError(f"cannot extend order {self.order} to {order}", index=order)
        return TruncatedSeries.from_coefficients(self.coeffs, order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        k = min(self.order, other.order)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs[: k + 1])))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + -other

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-a for a in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        # Cauchy product truncated at the smaller order
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries(tuple(sum(map(mul, a[:m + 1], b[m::-1]))
                                     for m in range(min(len(a), len(b)))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __str__(self) -> str:
        # one coefficient per line: "n: value" (a Fraction prints an integer plainly)
        return "\n".join(f"{n}: {c}" for n, c in enumerate(self.coeffs))


def scale(series: TruncatedSeries, factor: Scalar) -> TruncatedSeries:
    """Multiply every coefficient by an exact scalar."""
    f = Fraction(factor)
    return TruncatedSeries(tuple(c * f for c in series.coeffs))


def reciprocal(series: TruncatedSeries) -> TruncatedSeries:
    """The multiplicative inverse to the same order; needs a nonzero constant term."""
    a = series.coeffs
    if a[0] == 0:
        raise DomainError("series with zero constant term has no reciprocal", index=0)
    out = [Fraction(1) / a[0]]
    for m in range(1, len(a)):
        out.append(-sum(map(mul, a[1:m + 1], out[::-1])) / a[0])
    return TruncatedSeries(tuple(out))


def shift_divide(series: TruncatedSeries, k: int) -> TruncatedSeries:
    """Divide by x^k; the first k coefficients must vanish.  Order drops by k."""
    if k < 0:
        raise DomainError(f"shift must be nonnegative, got {k}")
    if k > series.order:
        raise DomainError(f"shift {k} exceeds order {series.order}", index=k)
    for i in range(k):
        if series.coeffs[i] != 0:
            raise DomainError(f"coefficient of x^{i} is nonzero, cannot divide by x^{k}", index=i)
    return TruncatedSeries(series.coeffs[k:])


def _sqrt_cubed(order: int) -> list[int]:
    """Integer coefficients of (1-8x)^{3/2} for x^0..x^order (``order`` >= 0)."""
    coeffs = [1, -12, 24][: order + 1]
    for n in range(2, order):
        coeffs.append(exact_quotient(coeffs[n] * 4 * (2 * n - 3), n + 1,
                                     f"(1-8x)^(3/2) at x^{n + 1}"))
    return coeffs


def _plus(coeffs: list[int], low: Sequence[int]) -> list[int]:
    """``coeffs`` with the polynomial ``low`` added to its leading terms."""
    return [a + b for a, b in zip(coeffs, low)] + coeffs[len(low):]


def _solve(num: Sequence[int], den: Sequence[int], order: int) -> TruncatedSeries:
    """The series h with den·h = num up to x^order, on integers.

    Each coefficient is one exact division by den[0] of num[m] less den[1:]
    against the coefficients found so far, newest first.
    """
    lead, rest = den[0], den[1: order + 1]
    h: list[int] = []
    for m in range(order + 1):
        acc = (num[m] if m < len(num) else 0) - sum(map(mul, rest, h[:-len(rest) - 1:-1]))
        h.append(exact_quotient(acc, lead, f"coefficient x^{m}"))
    return TruncatedSeries(tuple(map(Fraction, h)))


def one_minus_8x_pow_3_2(order: int) -> TruncatedSeries:
    """(1-8x)^{3/2}: coefficients 1, -12, then 3*2^{n+2} (2n-4)!/(n! (n-2)!) for n >= 2.

    From x^2 on each coefficient is a positive integer, c_2 = 24 and
    c_{n+1} = c_n·4(2n-3)/(n+1); the whole expansion agrees with the generic
    binomial series for (1-8x)^{3/2}.
    """
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    return TruncatedSeries(tuple(map(Fraction, _sqrt_cubed(order))))


def F_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Generating series of indecomposable 1342-avoider counts, one per length.

    (8x^2 + 12x - 1 + (1-8x)^{3/2}) / (32x); the x^0 coefficient is 0.
    """
    if order < 1:
        raise DomainError(f"order must be at least 1, got {order}")
    numerator = _plus(_sqrt_cubed(order + 1), (-1, 12, 8))
    return _solve(numerator[1:], [32], order)


def H_series_division(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Counts of all 1342-avoiders via 32x / (-8x^2 + 20x + 1 - (1-8x)^{3/2}).

    Both numerator and denominator vanish at x = 0, so each is divided by x
    first; the result has constant term 1.
    """
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    denominator = _plus([-c for c in _sqrt_cubed(order + 1)], (1, 20, -8))
    return _solve([32], denominator[1:], order)


def H_series_rational(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Counts of all 1342-avoiders via ((1-8x)^{3/2} - 8x^2 + 20x + 1) / (2(x+1)^3).

    >>> [int(c) for c in H_series_rational(6).coeffs]
    [1, 1, 2, 6, 23, 103, 512]
    """
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    numerator = _plus(_sqrt_cubed(order), (1, 20, -8))
    return _solve(numerator, [2, 6, 6, 2], order)


def _square_coefficient(c: Sequence[Scalar], m: int) -> Scalar:
    """The x^m coefficient of the square of a series whose coefficients start with c[0..m].

    2·sum_{i < m/2} c_i·c_{m-i} + c_{m/2}^2 (the last term for even m only):
    each product of the Cauchy sum appears twice, so it is formed once.
    """
    half = sum(map(mul, c[:(m + 1) // 2], c[m:m // 2:-1]))
    return 2 * half + c[m // 2] ** 2 if m % 2 == 0 else 2 * half


def verify_H_algebraic(order: int, h: TruncatedSeries | None = None) -> bool:
    """Check ((-8x^2 + 20x + 1)·H - 32x)^2 == (1-8x)^3·H^2 up to ``order``.

    Coefficient-exact with early exit at the first mismatch; ``h`` defaults to
    the division-route series and may be overridden (e.g. with a perturbed
    series, which must fail).
    """
    if order < 1:
        raise DomainError(f"order must be at least 1, got {order}")
    if h is None:
        h = H_series_division(order)
    if h.order < order:
        raise DomainError(f"series order {h.order} is below the requested {order}", index=order)
    # plain ints are much faster than integer-valued Fractions and the
    # comparison is exact either way
    hc = [c.numerator if c.denominator == 1 else c for c in h.coeffs[: order + 1]]
    # u = (1 + 20x - 8x^2)·H - 32x, from H padded with two zeros in front
    padded = [0, 0, *hc]
    u = [c + 20 * b - 8 * a for a, b, c in zip(padded, padded[1:], padded[2:])]
    u[1] -= 32
    # w = H^2 after three zeros, so (1-8x)^3·w reads w[-1..-4]; w and both
    # squares grow one order at a time, so a mismatch at low order stops the work
    w = [0, 0, 0]
    for m in range(order + 1):
        w.append(_square_coefficient(hc, m))
        if _square_coefficient(u, m) != w[-1] - 24 * w[-2] + 192 * w[-3] - 512 * w[-4]:
            return False
    return True
