"""Truncated formal power series over exact rationals, and the two generating functions.

A :class:`TruncatedSeries` knows its coefficients for x^0..x^order and nothing
beyond; binary operations truncate to the smaller order, and reading past the
order raises.  No floating point is used anywhere in this module.

The named series are computed on integers and wrapped into ``Fraction`` once,
at the end: (1-8x)^{3/2} by the ratio c_{n+1} = c_n·4(2n-3)/(n+1), and each
quotient num/den by ``_solve_integers``, the one solver of den·h = num, which
``counting.s1342_convolution`` also calls for H = 1/(1 - F).  Each h(m) is
one checked exact division by den[0] of num(m) less the sum of den(i)·h(m-i);
a remainder raises ``IntegralityError``.  A short den (1 term for
``F_series``, 4 for ``H_series_rational``) keeps the sum short and the route
linear.  Once the solver reads 330 terms of den past its lead (``_SPLITS``),
it builds h in blocks of 18: what block k takes from the earlier blocks j is
an 18×18 Toeplitz product, T[r][c] = den(18(k-j)+r-c), split as two
transposed Toom-3 levels over one Karatsuba level (``_LEVELS``) into 75
products in place of 324, each on an odd part with its power of two shifted
back in.  The Toom-3 weights scale by 6 per level, so each block is divided
by 36, a checked exact division.  Below 330 the split is empty: one block,
whose every h(m) is the direct sum, faster there.  Each coefficient of a
product, reciprocal or square, and each sum inside a block, is one
``sum(map(mul, ...))`` over aligned sequences, one of them reversed.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, islice, repeat
from operator import add, itemgetter, lshift, mul, rshift
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


# One level of the split of a Toeplitz product y = T·x of size f·m, T[r][c] = d(r-c),
# into products of size m.  With x_j and y_i the entries whose index is j and i mod f,
# y_i = sum_j D_(i-j)·x_j, where D_b is the m×m Toeplitz with diagonal o -> d(o·f + b).
# Per level: the weights of x_0..x_(f-1) in each child's columns, of D_(1-f)..D_(f-1)
# in each child's diagonals, of the children in each y_i, and the scale of the diagonal
# weights.  f = 2 is Karatsuba's three products, f = 3 Toom-3's five at 0, 1, -1, 2 and
# infinity, transposed.
_LEVELS = {
    2: (((1, 1), (0, 1), (1, 0)),
        ((0, 1, 0), (1, -1, 0), (0, -1, 1)),
        ((1, 1, 0), (1, 0, 1)),
        1),
    3: (((0, 0, 1), (1, 1, 1), (1, -1, 1), (4, 2, 1), (1, 0, 0)),
        ((6, -3, -6, 3, 0), (0, 6, 3, -3, 0), (0, -2, 3, -1, 0), (0, -1, 0, 1, 0),
         (0, 12, -6, -12, 6)),
        ((1, 1, 1, 1, 0), (0, 1, -1, 2, 0), (0, 1, 1, 4, 1)),
        6),
}

# (least reach, split): the first split whose bound meets min(len(den) - 1, order), the
# terms of den that ``_solve_integers`` reads past the lead.  The empty split is one block,
# the direct sum, faster below about 330 (0.55 of the kernel's time at 200, 1.05 at 350).
_SPLITS = ((330, (3, 3, 2)), (0, ()))

# earlier values of h that ``_block_product`` takes at once, which bounds what it holds
_CHUNK = 144


def _combine(weights, sequences):
    """The elementwise sum of weight·sequence, lazily; a lone weight 1 passes its sequence on."""
    terms = [s if w == 1 else map(mul, s, repeat(w)) for w, s in zip(weights, sequences) if w]
    return reduce(partial(map, add), terms)


def _leaf_tables(split, diagonals: list[list[int]]) -> list[tuple[list[int], list[int]]]:
    """Every leaf's d-combination as (its odd parts, their shifts), in ``_block_product``'s order.

    ``diagonals[o + size - 1]`` is d(o) over the pairs of blocks.  Each level
    forms its children's diagonals from its own, scaled, and interleaves
    their leaves, so the last level's child index varies slowest.
    """
    if not split:
        (values,) = diagonals
        shifts = [max((value & -value).bit_length() - 1, 0) for value in values]
        return [(list(map(rshift, values, shifts)), shifts)]
    f, rest = split[0], split[1:]
    children = [_leaf_tables(rest, [list(_combine(weights, diagonals[q * f:q * f + 2 * f - 1]))
                                    for q in range((len(diagonals) + 1) // f - 1)])
                for weights in _LEVELS[f][1]]
    return list(chain.from_iterable(zip(*children)))


def _block_product(split, odd, shift, out: list[int], k: int) -> list[int]:
    """scale·y for block k: the sum over the earlier blocks j of T_(k-j)·x_j.

    ``out`` holds x_j[c] at j·size + c, read ``_CHUNK`` values at a time.
    Each level splits its nodes' columns by their index mod f and forms all
    their children's columns at once, each from its parent's.  Then one
    C-level pass multiplies every leaf's odd parts by its columns and shifts
    them back, summed per leaf, and the levels combine the sums into rows.
    """
    size, sums = math.prod(split), [0] * len(odd)
    for j in range(0, k, _CHUNK // size):
        count = min(_CHUNK // size, k - j)
        columns = out[j * size:(j + count) * size]
        for f in split:
            columns = list(columns)
            parts = [columns[d::f] for d in range(f)]
            columns = chain.from_iterable(_combine(weights, parts) for weights in _LEVELS[f][0])
        window = itemgetter(slice(k - j, k - j - count, -1))
        products = map(lshift, map(mul, chain.from_iterable(map(window, odd)), columns),
                       chain.from_iterable(map(window, shift)))
        sums = list(map(add, sums, map(sum, zip(*[products] * count))))
    for f in reversed(split):
        column_weights, _, row_weights, _ = _LEVELS[f]
        step = len(sums) // len(column_weights)
        children = [sums[c:c + step] for c in range(0, len(sums), step)]
        sums = list(chain.from_iterable(zip(*[_combine(weights, children)
                                              for weights in row_weights])))
    return sums


def _solve_integers(num: Sequence[int], den: Sequence[int], order: int,
                    context: str = "coefficient x^{}") -> list[int]:
    """Integers h(0..order) with den·h = num, den known in full; context.format(m) names h(m)."""
    split = next(split for least, split in _SPLITS if min(len(den) - 1, order) >= least)
    size = math.prod(split) if split else order + 1  # the empty split is one block
    blocks, scale = order // size + 1, math.prod(_LEVELS[f][3] for f in split)
    rest = den[1:size]  # the terms inside one block
    if split:  # den(i) above order only reaches rows above order
        padded = [0] * (size - 1) + den[:order + 1]
        padded += [0] * (blocks * size + size - 1 - len(padded))
        odd, shift = zip(*_leaf_tables(split, [padded[o:o + blocks * size:size]
                                               for o in range(2 * size - 1)]))
    h: list[int] = []
    for k, n0 in enumerate(range(0, order + 1, size)):
        y = [0] * size if not k else [
            exact_quotient(value, scale, f"{context.format(m)} convolution block")
            for m, value in enumerate(_block_product(split, odd, shift, h, k), n0)]
        for m in range(n0, min(n0 + size, order + 1)):
            acc = ((num[m] if m < len(num) else 0) - y[m - n0]
                   - sum(map(mul, rest, islice(reversed(h), m - n0))))
            h.append(exact_quotient(acc, den[0], context.format(m)))
    return h


def _solve(num: Sequence[int], den: Sequence[int], order: int) -> TruncatedSeries:
    """The series h with den·h = num up to x^order, by ``_solve_integers``."""
    return TruncatedSeries(tuple(map(Fraction, _solve_integers(num, den, order))))


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
