"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (full subset scans, explicit
quantifiers, matrix closure) and shares no code path with the package, so a
bug in the library cannot hide behind the same bug in a test.
"""
from fractions import Fraction
from itertools import combinations, permutations, product
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


def oracle_increasing_avoiders(n, k):
    """Number of n-permutations avoiding 12...k: the sum of (f^λ)² over λ ⊢ n with under k columns.

    By the Robinson-Schensted correspondence, a permutation's longest
    increasing subsequence is the first row of its shape λ, and f^λ (the
    number of standard tableaux of shape λ) comes from the hook-length formula.
    """
    def partitions(m, largest):
        if m == 0:
            yield ()
            return
        for part in range(min(m, largest), 0, -1):
            for rest in partitions(m - part, part):
                yield (part,) + rest

    total = 0
    for shape in partitions(n, k - 1):
        hooks = 1
        for i, row in enumerate(shape):
            for j in range(row):
                below = sum(1 for other in shape[i + 1:] if other > j)
                hooks *= row - j + below
        assert factorial(n) % hooks == 0
        total += (factorial(n) // hooks) ** 2
    return total


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


def oracle_H_identity_holds(order, coeffs):
    """((1 + 20x - 8x^2)·H - 32x)^2 == (1-8x)^3·H^2 through x^order, by explicit Cauchy sums.

    ``coeffs`` holds H's coefficients from x^0, at least order + 1 of them,
    as ints or ``Fraction``s, so every sum is exact.  The two sides are
    compared one coefficient at a time, from x^0 up.
    """
    def cauchy(a, b, m):  # the x^m coefficient of a·b, each zero past its end
        return sum(a[i] * b[m - i] for i in range(m + 1) if i < len(a) and m - i < len(b))

    h = list(coeffs[:order + 1])
    u = [cauchy([1, 20, -8], h, m) - cauchy([0, 32], [1], m) for m in range(order + 1)]
    squares = []
    for m in range(order + 1):
        squares.append(cauchy(h, h, m))
        if cauchy(u, u, m) != cauchy([1, -24, 192, -512], squares, m):
            return False
    return True


def oracle_s1342_closed_form(n):
    """The alternating closed form for s1342(n), summed in exact rationals."""
    sign = 1 if n % 2 else -1  # (-1) ** (n - 1), an int at n = 0 too
    total = Fraction(7 * n * n - 3 * n - 2, 2) * sign
    for i in range(2, n + 1):
        term = Fraction(2 ** (i + 1) * factorial(2 * i - 4), factorial(i) * factorial(i - 2))
        total += 3 * term * comb(n - i + 2, 2) * (-1) ** (n - i)
    return total


def oracle_t_closed(n):
    """t(n) = 3·2^(n-1)·(2n)!/((n+2)!·n!) from three factorials and one division."""
    numerator = 3 * 2 ** (n - 1) * factorial(2 * n)
    denominator = factorial(n + 2) * factorial(n)
    assert numerator % denominator == 0
    return numerator // denominator


def oracle_s1342_convolution(up_to):
    """s(0..up_to) from s(n) = sum_{i=1..n} I(i)·s(n-i), I(1) = 1 and I(i) = t(i-1), term by term."""
    blocks = [0, 1] + [oracle_t_closed(i - 1) for i in range(2, up_to + 1)]
    values = [1]
    for n in range(1, up_to + 1):
        values.append(sum(blocks[i] * values[n - i] for i in range(1, n + 1)))
    return values


def oracle_catalan(n):
    """Catalan numbers by the additive recurrence."""
    values = [1]
    for m in range(n):
        values.append(sum(values[i] * values[m - i] for i in range(m + 1)))
    return values[n]


def oracle_shapes(n):
    """Every plane tree shape on n nodes as a nested (0, children) tuple.

    A forest is ordered by the size of its first tree, then by that tree, then
    by the rest of the forest: the order ``generate trees`` prints.
    """
    def forests(m):
        if m == 0:
            return [()]
        return [
            (first,) + rest
            for size in range(1, m + 1)
            for first in oracle_shapes(size)
            for rest in forests(m - size)
        ]

    return [(0, kids) for kids in forests(n - 1)] if n >= 1 else []


def oracle_labelings(shape, is_root=True):
    """Valid labelings of a nested shape, leftmost child slowest, own label fastest."""
    kids = shape[1]
    if not kids:
        return [(0, ())]
    out = []
    for labeled in product(*(oracle_labelings(kid, False) for kid in kids)):
        child_sum = sum(kid[0] for kid in labeled)
        for label in [child_sum] if is_root else range(child_sum + 2):
            out.append((label, labeled))
    return out


def oracle_is_valid_labeling(labels, children):
    """The labeling conditions quantified node by node; node 0 is the root.

    ``labels[k]`` is the label of node k and ``children[k]`` the list of its
    children's indices.
    """
    for k, kids in enumerate(children):
        child_sum = sum(labels[c] for c in kids)
        if k == 0:
            if labels[k] != child_sum:
                return False
        elif not kids:
            if labels[k] != 0:
                return False
        elif labels[k] > 1 + child_sum:
            return False
    return True


def oracle_tree_text(tree):
    """The canonical text of a nested (label, children) tuple."""
    label, kids = tree
    if not kids:
        return str(label)
    return f"{label}({' '.join(oracle_tree_text(kid) for kid in kids)})"
