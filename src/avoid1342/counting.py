"""Closed forms, recurrences, and cross-checked evaluation of the counting sequences.

Sequences handled here, all as exact arbitrary-precision integers:

* ``catalan(n)``        -- C(2n, n)/(n+1);
* ``t_closed(n)``       -- 3·2^(n-1)·(2n)!/((n+2)!·n!), the number of valid
  labeled trees on n+1 nodes, evaluated as 3·2^(n-1)·C(2n, n)/((n+1)(n+2));
  ``t_recurrence`` evaluates the equivalent recurrence
  t(n) = (8n-4)·t(n-1)/(n+2) with exactness asserted at every step;
* ``indecomposable_count(n)`` -- indecomposable 1342-avoiders of length n,
  which is 1 for n = 1 and t_closed(n-1) afterwards;
* ``s1342_closed(n)``   -- all 1342-avoiders of length n, by the paper's
  alternating closed form, whose terms 3·2^(i+1)·(2i-4)!/(i!(i-2)!) are
  16·t(i-2) for i >= 3.  As series, S(x)·(1+x)^3 = 1 + 4x + 8x^2
  + 16x^2·sum_k t(k)·x^k, so (-1)^n·s(n) is the third running sum of (-1)^k·g(k),
  g = 1, 4, 8, 16·t(1), 16·t(2), ...: one lazy chain of
  ``itertools.accumulate`` gives every s(0..N), which ``s1342_closed``,
  the CLI and ``cross_check`` read.  ``s1342_convolution`` builds the
  same numbers from the indecomposable counts I(i) = t(i-1) via
  s(n) = sum_i I(i)·s(n-i) (H = 1/(1-F)), as one call to the series
  layer's blocked solver of den·h = num, which also serves
  ``H_series_division``.  Both routes read t off ``t_recurrence``, which
  grows its cache under a lock, so threads may share it;
* ``s1234_closed(n)``   -- all 1234-avoiders of length n; ``s1234_recurrence``
  builds the same numbers from their P-recurrence, and ``_s1234_values``
  any range of them with two terms live.

Closed forms are evaluated on integers: every division is a checked exact
division (``IntegralityError`` on a remainder), so any transcription slip
fails loudly instead of rounding.  ``s1234_closed``, whose terms are not
integers, sums them over one common denominator and divides once at the end.
``cross_check`` runs every available method pair over a shared range (brute
force included up to its own bound) and reports disagreements as data.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from itertools import accumulate, chain, cycle, islice
from operator import mul

from .errors import DEFAULT_CEILING, DomainError, exact_quotient
from .perms import Permutation, count_avoiders
from .series import (F_series, H_series_division, H_series_rational, _solve_integers,
                     _square_coefficient)
from .trees import count_beta01


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n)/(n+1), defined for n >= 0."""
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    return math.comb(2 * n, n) // (n + 1)


def t_closed(n: int) -> int:
    """Closed form 3·2^(n-1)·(2n)!/((n+2)!·n!) for n >= 1.

    t(1..4) = 1, 3, 12, 56; t(n) also counts the valid labeled trees on n+1
    nodes and the indecomposable 1342-avoiders of length n+1.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    return exact_quotient((3 * math.comb(2 * n, n)) << (n - 1), (n + 1) * (n + 2), f"t({n})")


_t_cache = [None, 1]  # _t_cache[n] = t(n); only appended to, under _t_lock
_t_lock = threading.Lock()


def t_recurrence(n: int) -> int:
    """Evaluate t via t(n) = (8n-4)·t(n-1)/(n+2), t(1) = 1; every division exact.

    The cache grows under a lock: threads that interleave its length check
    and its append would store a term twice and shift every later one.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    with _t_lock:
        while len(_t_cache) <= n:
            m = len(_t_cache)
            _t_cache.append(exact_quotient((8 * m - 4) * _t_cache[m - 1], m + 2,
                                           f"t({m}) recurrence step"))
    return _t_cache[n]


def indecomposable_count(n: int) -> int:
    """Number of indecomposable 1342-avoiding n-permutations: 1, 1, 3, 12, 56, ...

    Equals the x^n coefficient of ``F_series`` (tested against it), i.e. 1 at
    n = 1 and t_closed(n-1) for n >= 2.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    return 1 if n == 1 else t_closed(n - 1)


def _s1342_closed_values(lo: int, hi: int) -> list[int]:
    """Values s1342(lo..hi), 0 <= lo, by the running sums derived at ``s1342_closed``.

    t is read off ``t_recurrence``, and each t(j) takes its sign and its
    factor 16 in one product.  The values below lo are passed over inside the
    chain, and each value kept takes its sign once.

    >>> _s1342_closed_values(0, 6)
    [1, 1, 2, 6, 23, 103, 512]
    """
    if hi > 2:
        t_recurrence(hi - 2)
    signed = chain((1, -4, 8), map(mul, islice(_t_cache, 1, None), cycle((-16, 16))))
    alternating = accumulate(accumulate(accumulate(islice(signed, hi + 1))))
    return list(map(mul, islice(alternating, lo, None), cycle((-1, 1) if lo % 2 else (1, -1))))


def s1342_closed(n: int) -> int:
    """Number of 1342-avoiding n-permutations by the alternating closed form.

    The paper's form, (7n^2-3n-2)/2 · (-1)^(n-1)
      + 3·sum_{i=2..n} 2^(i+1) · (2i-4)!/(i!(i-2)!) · C(n-i+2, 2) · (-1)^(n-i),
    has the terms 3·2^(i+1)·(2i-4)!/(i!(i-2)!) = 16·t(i-2) for i >= 3.  The
    i = 2 term folds into the polynomial, and m = n-i+2 gives the t form
    s(n) = (5n^2-9n+2)/2 · (-1)^n + 16·sum_{m=2..n-1} (-1)^m · C(m, 2) · t(n-m).
    As series in x: the weights (-1)^m·C(m, 2) are the coefficients of
    x^2/(1+x)^3, and the polynomial term's values 1, 1, 2, -10, ... those of
    (1 + 4x + 8x^2)/(1+x)^3.  So S(x)·(1+x)^3 = g(x) with
    g = 1, 4, 8, 16·t(1), 16·t(2), ..., and e(n) = (-1)^n·s(n) is the third
    running sum of (-1)^k·g(k): three C-level passes of additions, which
    give every s(0..n) on the way.  This keeps the last one.  First values:
    1, 2, 6, 23, 103, 512.

    >>> s1342_closed(6)
    512
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    return _s1342_closed_values(n, n)[0]


def s1342_convolution(up_to: int) -> list[int]:
    """Values s(0..up_to) built from s(n) = sum_{i=1..n} I(i)·s(n-i), s(0) = 1.

    H = 1/(1 - F), solved by ``series._solve_integers`` as (F - 1)·s = -1
    with den = -1, I(1), I(2), ...: I(i) = t(i-1) comes off ``t_recurrence``
    up to t(up_to-1), as I(i) above up_to only reaches rows above up_to.  From
    up_to = 330 on the solver builds s in blocks of 18.

    >>> s1342_convolution(6)
    [1, 1, 2, 6, 23, 103, 512]
    """
    if up_to < 0:
        raise DomainError(f"up_to must be nonnegative, got {up_to}")
    den = [-1, 1, *map(t_recurrence, range(1, up_to))]  # den[i + 1] = I(i + 1) = t(i)
    return _solve_integers([-1], den, up_to, "s1342({})")


def s1234_closed(n: int) -> int:
    """Number of 1234-avoiding n-permutations.

    2 · sum_{i=0..n} C(2i, i) · C(n, i)^2
          · (3i^2 + 2i + 1 - n - 2in) / ((i+1)^2 (i+2) (n-i+1));
    C(2i, i) and C(n, i) go from one term to the next by their small-integer
    ratios, one checked division each; the terms are summed over the lcm of
    their denominators, and the one division at the end is checked exact.
    First values: 1, 2, 6, 23, 103, 513, 2761, 15767.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    denominators = [(i + 1) ** 2 * (i + 2) * (n - i + 1) for i in range(n + 1)]
    common = math.lcm(*denominators)
    total, central, binomial = 0, 1, 1  # C(2i, i) and C(n, i) at i = 0
    step = f"s1234({n}) binomial step"
    for i, d in enumerate(denominators):
        total += (central * binomial ** 2
                  * (3 * i * i + 2 * i + 1 - n - 2 * i * n) * (common // d))
        central = exact_quotient(2 * (2 * i + 1) * central, i + 1, step)
        binomial = exact_quotient((n - i) * binomial, i + 1, step)
    return exact_quotient(2 * total, common, f"s1234({n})")


def _s1234_values(lo: int, hi: int) -> list[int]:
    """Values s1234(lo..hi), 0 <= lo, from the P-recurrence of ``s1234_recurrence``.

    Two terms are live at a time, one checked division per new term, and
    only the values from lo on are kept.

    >>> _s1234_values(5, 7)
    [103, 513, 2761]
    """
    kept = [1, 1][lo:hi + 1]
    previous, current = 1, 1  # a(n), a(n+1)
    for n in range(hi - 1):
        step = (10 * n * n + 42 * n + 41) * current - 9 * (n + 1) ** 2 * previous
        previous, current = current, exact_quotient(step, (n + 4) ** 2,
                                                    f"s1234({n + 2}) recurrence step")
        if n + 2 >= lo:
            kept.append(current)
    return kept


def s1234_recurrence(up_to: int) -> list[int]:
    """Values s1234(0..up_to) from the P-recurrence, one checked division per term.

    (n+4)^2·a(n+2) = (10n^2+42n+41)·a(n+1) - 9(n+1)^2·a(n), a(0) = a(1) = 1,
    the recurrence implied by Gessel's formula; O(up_to) big-integer steps,
    where ``s1234_closed`` costs O(n) rationals per value.

    >>> s1234_recurrence(7)
    [1, 1, 2, 6, 23, 103, 513, 2761]
    """
    if up_to < 0:
        raise DomainError(f"up_to must be nonnegative, got {up_to}")
    return _s1234_values(0, up_to)


def nth_root_estimate(n: int) -> float:
    """Float approximation of s1342(n)^(1/n), good to at least 10 significant digits.

    Computed in the log domain from the exact value ``s1342_closed(n)``, so
    the only error is the final float rounding.

    >>> round(nth_root_estimate(6), 10)  # 512 ** (1/6) = 2 ** 1.5
    2.8284271247
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    return math.exp(math.log(s1342_closed(n)) / n)


# ---------------------------------------------------------------------------
# cross-checking
# ---------------------------------------------------------------------------

@dataclass
class SequenceReport:
    """Values of one sequence computed by several methods, plus any disagreements."""

    name: str
    entries: list[tuple[int, int, str]] = field(default_factory=list)
    discrepancies: list[tuple[int, str, str]] = field(default_factory=list)

    # n -> positions in ``entries`` of the entries for that n, in order
    _by_n: dict[int, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.entries, self.discrepancies = list(self.entries), list(self.discrepancies)
        for position, (n, _, _) in enumerate(self.entries):
            self._by_n.setdefault(n, []).append(position)

    def add(self, n: int, value: int, method: str) -> None:
        same_n = self._by_n.setdefault(n, [])
        for position in same_n:
            _, other_value, other_method = self.entries[position]
            if other_value != value:
                self.discrepancies.append((n, other_method, method))
        same_n.append(len(self.entries))
        self.entries.append((n, value, method))

    @property
    def consistent(self) -> bool:
        return not self.discrepancies

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "entries": [
                {"n": n, "value": str(value), "method": method}
                for n, value, method in self.entries
            ],
            "discrepancies": [
                {"n": n, "method_a": a, "method_b": b}
                for n, a, b in self.discrepancies
            ],
        }


@dataclass
class CrossCheckReport:
    """Per-sequence reports plus the inequality checks, with a single verdict."""

    reports: list[SequenceReport] = field(default_factory=list)
    bound_violations: list[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.bound_violations and all(r.consistent for r in self.reports)

    def to_json_dict(self) -> dict:
        return {
            "consistent": self.consistent,
            "sequences": [r.to_json_dict() for r in self.reports],
            "bound_violations": list(self.bound_violations),
        }

    def to_json(self) -> str:
        import json
        return json.dumps(self.to_json_dict(), indent=2)


_P1342 = Permutation((1, 3, 4, 2))
_P1234 = Permutation((1, 2, 3, 4))
_P132 = Permutation((1, 3, 2))


def cross_check(
    up_to_closed: int,
    up_to_brute: int,
    *,
    brute_ceiling: int = DEFAULT_CEILING,
    inject_error: bool = False,
) -> CrossCheckReport:
    """Compare every method pair for the four sequences and run the inequality checks.

    Closed forms, series coefficients, recurrences and convolutions run up to
    ``up_to_closed``; brute-force oracles up to ``up_to_brute``, and there the
    labeled trees on n nodes, counted off ``trees.count_beta01``'s label-sum
    tables, which build no tree.  A negative bound is refused before any
    work.  Each route is a list of values by n; one table row per sequence
    names its first n and its routes on each range, and one loop fills every
    ``SequenceReport`` n by n in its row's order.  Also checks s1342(n) < 8^n
    over the closed range and s1342(n) < s1234(n) from n = 6 on (by oracle on
    the brute range; on the closed range against one pass of
    ``s1234_recurrence``).  Disagreements are reported as data, not raised.
    ``inject_error`` corrupts the closed s1342(min(3, ``up_to_closed``)), so
    harnesses can confirm the check is not vacuous.
    """
    if up_to_brute < 0:
        raise DomainError(f"up_to_brute must be nonnegative, got {up_to_brute}")
    if up_to_brute > brute_ceiling:
        raise DomainError(
            f"up_to_brute={up_to_brute} exceeds the brute-force ceiling {brute_ceiling}"
        )
    convolution = s1342_convolution(up_to_closed)  # refuses a negative up_to_closed
    closed = _s1342_closed_values(0, up_to_closed)
    reported = closed.copy()
    reported[min(3, up_to_closed)] += bool(inject_error)
    squares = [1]  # the Catalan numbers by C(n+1) = [x^n] C(x)^2
    for n in range(up_to_closed):
        squares.append(_square_coefficient(squares, n))
    closed_ns, brute_ns = range(1, up_to_closed + 1), range(1, up_to_brute + 1)

    def brute(count, *args):  # values by n over the brute range; index 0 is never read
        return [0, *(count(n, *args, ceiling=brute_ceiling) for n in brute_ns)]

    brute_1342 = brute(count_avoiders, _P1342)
    # (name, first n, closed-range routes, brute-range routes); a route is (method, values by n)
    table = (
        ("s1342", 1, (("closed", reported),
                      ("series-division", [*map(int, H_series_division(up_to_closed).coeffs)]),
                      ("series-rational", [*map(int, H_series_rational(up_to_closed).coeffs)]),
                      ("convolution", convolution)), (("brute", brute_1342),)),
        ("t", 1, (("closed", [0, *map(t_closed, closed_ns)]),
                  ("recurrence", [0, *map(t_recurrence, closed_ns)])), ()),
        ("indecomposable-1342", 1,
         (("shifted-closed", [0, *map(indecomposable_count, closed_ns)]),
          ("series", [*map(int, F_series(max(up_to_closed, 1)).coeffs)])),  # F refuses order 0
         (("brute", brute(count_avoiders, _P1342, "indecomposable")),
          ("trees", brute(count_beta01)))),
        ("catalan", 0, (("binomial", [*map(catalan, range(up_to_closed + 1))]),
                        ("recurrence", squares)), (("brute-132", brute(count_avoiders, _P132)),)),
    )
    report = CrossCheckReport()
    for name, first, closed_routes, brute_routes in table:
        sequence = SequenceReport(name)
        for ns, routes in ((range(first, up_to_closed + 1), closed_routes),
                           (brute_ns, brute_routes)):
            for n in ns:
                for method, values in routes:
                    sequence.add(n, values[n], method)
        report.reports.append(sequence)

    for n, value in enumerate(closed[1:], start=1):
        if not value < 8 ** n:
            report.bound_violations.append(f"s1342({n}) >= 8^{n}")
    s1234 = s1234_recurrence(up_to_closed)
    for n in range(6, up_to_closed + 1):
        if not closed[n] < s1234[n]:
            report.bound_violations.append(f"s1342({n}) >= s1234({n}) [closed]")
    for n in range(6, up_to_brute + 1):
        if not brute_1342[n] < count_avoiders(n, _P1234, ceiling=brute_ceiling):
            report.bound_violations.append(f"s1342({n}) >= s1234({n}) [brute]")

    return report
