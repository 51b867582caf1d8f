"""Closed forms, recurrences, and cross-checked evaluation of the counting sequences.

Sequences handled here, all as exact arbitrary-precision integers:

* ``catalan(n)``        -- C(2n, n)/(n+1);
* ``t_closed(n)``       -- 3·2^(n-1)·(2n)!/((n+2)!·n!), the number of valid
  labeled trees on n+1 nodes; ``t_recurrence`` evaluates the equivalent
  recurrence t(n) = (8n-4)·t(n-1)/(n+2) with exactness asserted at every step;
* ``indecomposable_count(n)`` -- indecomposable 1342-avoiders of length n,
  which is 1 for n = 1 and t_closed(n-1) afterwards;
* ``s1342_closed(n)``   -- all 1342-avoiders of length n, by the alternating
  closed form; ``s1342_convolution`` builds the same numbers from the
  indecomposable counts via s(n) = sum_i I(i)·s(n-i);
* ``s1234_closed(n)``   -- all 1234-avoiders of length n.

Closed forms are evaluated on integers: every division is a checked exact
division (``IntegralityError`` on a remainder), so any transcription slip
fails loudly instead of rounding.  Only ``s1234_closed``, whose terms are not
integers, sums exact rationals and asserts the total integral.
``cross_check`` runs every available method pair over a shared range (brute
force included up to its own bound) and reports disagreements as data.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, IntegralityError, exact_quotient
from .perms import DEFAULT_CEILING, Permutation, count_avoiders
from .series import F_series, H_series_division, H_series_rational
from .trees import generate_all_beta01


def _as_integer(value: Fraction, context: str) -> int:
    if value.denominator != 1:
        raise IntegralityError(f"{context} evaluated to the non-integer {value}")
    return value.numerator


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
    return exact_quotient(3 * 2 ** (n - 1) * math.factorial(2 * n),
                          math.factorial(n + 2) * math.factorial(n), f"t({n})")


_t_cache = [None, 1]  # _t_cache[n] = t(n)


def t_recurrence(n: int) -> int:
    """Evaluate t via t(n) = (8n-4)·t(n-1)/(n+2), t(1) = 1; every division exact."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
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


_s1342_terms = [None, None, 12]  # _s1342_terms[i] = 3·2^(i+1)·(2i-4)!/(i!(i-2)!)


def s1342_closed(n: int) -> int:
    """Number of 1342-avoiding n-permutations by the alternating closed form.

    (7n^2-3n-2)/2 · (-1)^(n-1)
      + 3·sum_{i=2..n} 2^(i+1) · (2i-4)!/(i!(i-2)!) · C(n-i+2, 2) · (-1)^(n-i);
    the sum is empty for n = 1.  First values: 1, 2, 6, 23, 103, 512.  The
    integer terms 3·2^(i+1)·(2i-4)!/(i!(i-2)!) = 12, 16, 32, ... come from a
    module list grown by the ratio 4(2i-5)/i, one checked division each.

    >>> s1342_closed(6)
    512
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    while len(_s1342_terms) <= n:
        i = len(_s1342_terms)
        _s1342_terms.append(exact_quotient(4 * (2 * i - 5) * _s1342_terms[i - 1], i,
                                           f"s1342 term {i}"))
    lead = exact_quotient(7 * n * n - 3 * n - 2, 2, f"s1342({n}) lead term")
    total = lead if n % 2 else -lead
    for i in range(2, n + 1):
        term = _s1342_terms[i] * math.comb(n - i + 2, 2)
        total += -term if (n - i) % 2 else term
    return total


def s1342_convolution(up_to: int) -> list[int]:
    """Values s(0..up_to) built from s(n) = sum_{i=1..n} I(i)·s(n-i), s(0) = 1."""
    if up_to < 0:
        raise DomainError(f"up_to must be nonnegative, got {up_to}")
    blocks = [0] + [indecomposable_count(i) for i in range(1, up_to + 1)]
    out = [1]
    for n in range(1, up_to + 1):
        out.append(sum(blocks[i] * out[n - i] for i in range(1, n + 1)))
    return out


@lru_cache(maxsize=8)
def _convolution_cached(up_to: int) -> tuple[int, ...]:
    return tuple(s1342_convolution(up_to))


def s1234_closed(n: int) -> int:
    """Number of 1234-avoiding n-permutations.

    2 · sum_{i=0..n} C(2i, i) · C(n, i)^2
          · (3i^2 + 2i + 1 - n - 2in) / ((i+1)^2 (i+2) (n-i+1));
    rational intermediates, result asserted integral.  First values:
    1, 2, 6, 23, 103, 513, 2761, 15767.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    total = Fraction(0)
    for i in range(n + 1):
        total += Fraction(
            math.comb(2 * i, i) * math.comb(n, i) ** 2
            * (3 * i * i + 2 * i + 1 - n - 2 * i * n),
            (i + 1) ** 2 * (i + 2) * (n - i + 1),
        )
    return _as_integer(2 * total, f"s1234({n})")


def nth_root_estimate(n: int) -> float:
    """Float approximation of s1342(n)^(1/n), good to at least 10 significant digits.

    Computed in the log domain from the exact convolution value, so the only
    error is the final float rounding.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    s = _convolution_cached(n)[n]
    return math.exp(math.log(s) / n)


# ---------------------------------------------------------------------------
# cross-checking
# ---------------------------------------------------------------------------

@dataclass
class SequenceReport:
    """Values of one sequence computed by several methods, plus any disagreements."""

    name: str
    entries: list[tuple[int, int, str]] = field(default_factory=list)
    discrepancies: list[tuple[int, str, str]] = field(default_factory=list)

    def add(self, n: int, value: int, method: str) -> None:
        for other_n, other_value, other_method in self.entries:
            if other_n == n and other_value != value:
                self.discrepancies.append((n, other_method, method))
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
    ``up_to_closed``; brute-force oracles up to ``up_to_brute``.  Also checks
    s1342(n) < 8^n over the closed range and s1342(n) < s1234(n) from n = 6 on
    (by oracle on the brute range, by closed forms on the full range).
    Disagreements are reported as data, not raised.  ``inject_error``
    deliberately corrupts one value so harnesses can confirm the check is not
    vacuous.
    """
    if up_to_brute > brute_ceiling:
        raise DomainError(
            f"up_to_brute={up_to_brute} exceeds the brute-force ceiling {brute_ceiling}"
        )
    report = CrossCheckReport()

    s_report = SequenceReport("s1342")
    closed = {n: s1342_closed(n) for n in range(1, up_to_closed + 1)}
    convolution = s1342_convolution(up_to_closed)
    h_div = H_series_division(up_to_closed) if up_to_closed >= 1 else None
    h_rat = H_series_rational(up_to_closed) if up_to_closed >= 1 else None
    for n in range(1, up_to_closed + 1):
        reported = closed[n] + 1 if inject_error and n == min(3, up_to_closed) else closed[n]
        s_report.add(n, reported, "closed")
        s_report.add(n, int(h_div.coefficient(n)), "series-division")
        s_report.add(n, int(h_rat.coefficient(n)), "series-rational")
        s_report.add(n, convolution[n], "convolution")
    brute = {n: count_avoiders(n, _P1342, ceiling=brute_ceiling) for n in range(1, up_to_brute + 1)}
    for n, value in brute.items():
        s_report.add(n, value, "brute")
    report.reports.append(s_report)

    t_report = SequenceReport("t")
    for n in range(1, up_to_closed + 1):
        t_report.add(n, t_closed(n), "closed")
        t_report.add(n, t_recurrence(n), "recurrence")
    report.reports.append(t_report)

    i_report = SequenceReport("indecomposable-1342")
    f_coeffs = F_series(up_to_closed) if up_to_closed >= 1 else None
    for n in range(1, up_to_closed + 1):
        i_report.add(n, indecomposable_count(n), "shifted-closed")
        i_report.add(n, int(f_coeffs.coefficient(n)), "series")
    for n in range(1, up_to_brute + 1):
        i_report.add(n, count_avoiders(n, _P1342, "indecomposable", ceiling=brute_ceiling), "brute")
        i_report.add(n, sum(1 for _ in generate_all_beta01(n, ceiling=max(n, 12))), "trees")
    report.reports.append(i_report)

    c_report = SequenceReport("catalan")
    recurrence = [1]
    for n in range(0, up_to_closed + 1):
        c_report.add(n, catalan(n), "binomial")
        if n > 0:
            recurrence.append(sum(recurrence[i] * recurrence[n - 1 - i] for i in range(n)))
        c_report.add(n, recurrence[n], "recurrence")
    for n in range(1, up_to_brute + 1):
        c_report.add(n, count_avoiders(n, _P132, ceiling=brute_ceiling), "brute-132")
    report.reports.append(c_report)

    for n, value in closed.items():
        if not value < 8 ** n:
            report.bound_violations.append(f"s1342({n}) >= 8^{n}")
    for n in range(6, up_to_closed + 1):
        if not closed[n] < s1234_closed(n):
            report.bound_violations.append(f"s1342({n}) >= s1234({n}) [closed]")
    for n in range(6, up_to_brute + 1):
        if not brute[n] < count_avoiders(n, _P1234, ceiling=brute_ceiling):
            report.bound_violations.append(f"s1342({n}) >= s1234({n}) [brute]")

    return report
