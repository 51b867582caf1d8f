"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (full subset scans, explicit
quantifiers, matrix closure) and shares no code path with the package, so a
bug in the library cannot hide behind the same bug in a test.
"""
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial


def rank_pattern(vals):
    order = sorted(vals)
    return tuple(order.index(v) + 1 for v in vals)


def oracle_contains(vals, pattern):
    """Scan every position subset of the right size."""
    k = len(pattern)
    return any(rank_pattern(sub) == tuple(pattern) for sub in combinations(vals, k))


def oracle_count_occurrences(vals, pattern):
    k = len(pattern)
    return sum(1 for sub in combinations(vals, k) if rank_pattern(sub) == tuple(pattern))


def oracle_avoiders(n, pattern):
    """Every n-permutation avoiding the pattern, by full scan."""
    return [p for p in permutations(range(1, n + 1)) if not oracle_contains(p, pattern)]


def oracle_is_indecomposable(vals):
    n = len(vals)
    if n == 0:
        return False
    return not any(min(vals[:c]) > max(vals[c:]) for c in range(1, n))


def oracle_minima(vals):
    return tuple(
        (i + 1, v)
        for i, v in enumerate(vals)
        if all(earlier > v for earlier in vals[:i])
    )


def oracle_beats_matrix(vals):
    """beats[i][j] by the literal definition: some h < i has v_h < v_j < v_i (0-based)."""
    n = len(vals)
    return [
        [
            i < j and any(vals[h] < vals[j] < vals[i] for h in range(i))
            for j in range(n)
        ]
        for i in range(n)
    ]


def oracle_reaches_matrix(vals):
    """Transitive closure of the beats matrix (Floyd-Warshall)."""
    n = len(vals)
    reach = [row[:] for row in oracle_beats_matrix(vals)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return reach


def oracle_sqrt_cubed_coefficient(n):
    """x^n coefficient of (1-8x)^{3/2} via the generic binomial series."""
    binom = Fraction(1)
    for i in range(n):
        binom *= (Fraction(3, 2) - i) / (i + 1)
    return binom * (-8) ** n


def oracle_s1342_closed_form(n):
    """The alternating closed form for s1342(n), summed in exact rationals."""
    total = Fraction(7 * n * n - 3 * n - 2, 2) * (-1) ** (n - 1)
    for i in range(2, n + 1):
        term = Fraction(2 ** (i + 1) * factorial(2 * i - 4), factorial(i) * factorial(i - 2))
        total += 3 * term * comb(n - i + 2, 2) * (-1) ** (n - i)
    return total


def oracle_catalan(n):
    """Catalan numbers by the additive recurrence."""
    values = [1]
    for m in range(n):
        values.append(sum(values[i] * values[m - i] for i in range(m + 1)))
    return values[n]
