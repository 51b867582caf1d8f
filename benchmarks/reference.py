"""Reference routes computed apart from the program under test.

Nothing here imports ``avoid1342``.  Every count, pattern test and tree
predicate the benchmark checks the program against is derived below from
first principles, by a route different from the one the program takes.

Trees are held in the benchmark's own form: two lists ``labels`` and
``parent`` in preorder, so ``parent[0] == -1``, ``parent[i] < i`` for every
other node, and the children of a node are the nodes naming it as parent,
left to right in index order.  Every walk over them is iterative, so depth
is limited by memory alone.
"""
from __future__ import annotations

from math import factorial


# ---------------------------------------------------------------------------
# counting sequences
# ---------------------------------------------------------------------------

def s1342_upto(n_max: int) -> list[int]:
    """s(0..n_max), the 1342-avoider counts, by the integer recurrence.

    2(s_n + 3s_{n-1} + 3s_{n-2} + s_{n-3}) = c_n for n >= 3, where c_n is the
    x^n coefficient of (1-8x)^{3/2}: c_2 = 24 and c_n = c_{n-1}(8n-20)/n.
    This is the series identity 2(1+x)^3 H = (1-8x)^{3/2} + 1 + 20x - 8x^2
    with the denominator cleared, so it shares no arithmetic with the closed
    form, the series division or the convolution.
    """
    s = [1, 1, 2][: n_max + 1]
    c = 24
    for n in range(3, n_max + 1):
        c, rem = divmod(c * (8 * n - 20), n)
        half, odd = divmod(c, 2)
        if rem or odd:
            raise ArithmeticError(f"recurrence step {n} is not integral")
        s.append(half - 3 * s[n - 1] - 3 * s[n - 2] - s[n - 3])
    return s


def t_formula(n: int) -> int:
    """t(n) = 3·2^(n-1)·(2n)!/((n+2)!·n!) in plain integers, n >= 1.

    t(n) counts the valid labeled trees on n+1 nodes and the indecomposable
    1342-avoiders of length n+1.
    """
    q, r = divmod(3 * 2 ** (n - 1) * factorial(2 * n), factorial(n + 2) * factorial(n))
    if r:
        raise ArithmeticError(f"t({n}) is not integral")
    return q


def indecomposable_1342(n: int) -> int:
    """Indecomposable 1342-avoiders of length n: 1 at n = 1, t(n-1) after."""
    return 1 if n == 1 else t_formula(n - 1)


def catalan_upto(n_max: int) -> list[int]:
    """C_0..C_{n_max} by the additive recurrence C_{n+1} = sum C_i C_{n-i}."""
    c = [1]
    for n in range(n_max):
        c.append(sum(c[i] * c[n - i] for i in range(n + 1)))
    return c


def _partitions(n: int, rows: int, largest: int | None = None):
    """Partitions of n into at most ``rows`` parts, parts non-increasing."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(n, largest), 0, -1):
        if first * rows < n:
            break
        for rest in _partitions(n - first, rows - 1, first):
            yield (first,) + rest


class IncreasingAvoiders:
    """Counts of permutations avoiding 12...k (k = rows + 1).

    By RSK, such a permutation is a pair of standard tableaux of one shape
    with at most ``rows`` rows, so the count is sum (f^λ)^2 over those
    shapes.  f^λ is the hook-length formula in its Frobenius form:
    f^λ = n!·prod_{i<j}(l_i - l_j)/prod l_i!, with l_i = λ_i + rows - i.
    """

    def __init__(self, rows: int):
        self.rows = rows
        self._fact = [1]

    def count(self, n: int) -> int:
        k = self.rows
        while len(self._fact) < n + k:  # every l_i is below n + k
            self._fact.append(self._fact[-1] * len(self._fact))
        fn = self._fact[n]
        total = 0
        for lam in _partitions(n, k):
            lam = lam + (0,) * (k - len(lam))
            ell = [lam[i] + k - 1 - i for i in range(k)]
            num = 1
            den = 1
            for i in range(k):
                den *= self._fact[ell[i]]
                for j in range(i + 1, k):
                    num *= ell[i] - ell[j]
            f, rem = divmod(fn * num, den)
            if rem:
                raise ArithmeticError(f"f^{lam} is not integral")
            total += f * f
        return total


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def contains_1342(p) -> bool:
    """O(n^2) test for an occurrence p_a < p_d < p_b < p_c, a < b < c < d.

    For each b, the best a is the prefix minimum before b and the best c is
    the first later entry above p_b (it leaves the most room for d); then
    look for a d after c strictly between the two.
    """
    n = len(p)
    low = n + 1
    for b in range(n):
        vb = p[b]
        if low < vb:
            c = b + 1
            while c < n and p[c] < vb:
                c += 1
            for d in range(c + 1, n):
                if low < p[d] < vb:
                    return True
        if vb < low:
            low = vb
    return False


def contains_132(p) -> bool:
    """O(n^2) test for an occurrence p_a < p_c < p_b, a < b < c."""
    n = len(p)
    low = n + 1
    for b in range(n):
        vb = p[b]
        if low < vb:
            for c in range(b + 1, n):
                if low < p[c] < vb:
                    return True
        if vb < low:
            low = vb
    return False


def block_count(p) -> int:
    """Number of blocks in the skew decomposition of a permutation of 1..n, in O(n).

    A cut after the first c entries is legal exactly when they are the top c
    values, that is when their minimum is n - c + 1.
    """
    n = len(p)
    low = n + 1
    blocks = 0
    for c, v in enumerate(p, start=1):
        if v < low:
            low = v
        if low == n - c + 1:
            blocks += 1
    return blocks


def is_indecomposable(p) -> bool:
    return len(p) > 0 and block_count(p) == 1


def is_permutation(p, n: int) -> bool:
    return sorted(p) == list(range(1, n + 1))


def left_to_right_minima(p) -> list[tuple[int, int]]:
    out = []
    low = None
    for i, v in enumerate(p):
        if low is None or v < low:
            out.append((i, v))
            low = v
    return out


def skew_sum(blocks) -> tuple[int, ...]:
    """Concatenate blocks, each lifted above every later one."""
    out: list[int] = []
    above = sum(len(b) for b in blocks)
    for b in blocks:
        above -= len(b)
        out.extend(v + above for v in b)
    return tuple(out)


def perm_text(p) -> str:
    """The program's text form: digits up to length 9, comma-separated beyond."""
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def parse_perm_text(text: str) -> tuple[int, ...]:
    text = text.strip()
    if "," in text:
        return tuple(int(x) for x in text.split(","))
    return tuple(int(ch) for ch in text)


# ---------------------------------------------------------------------------
# trees as (labels, parent) preorder arrays
# ---------------------------------------------------------------------------

def children_of(parent: list[int]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in parent]
    for i in range(1, len(parent)):
        kids[parent[i]].append(i)
    return kids


def is_valid_tree(labels: list[int], parent: list[int]) -> bool:
    """Leaves 0, root equal to its child sum, other internal nodes at most 1 + child sum."""
    n = len(labels)
    if n == 0 or parent[0] != -1:
        return False
    if any(not 0 <= parent[i] < i for i in range(1, n)):
        return False
    child_sum = [0] * n
    has_child = [False] * n
    for i in range(1, n):
        child_sum[parent[i]] += labels[i]
        has_child[parent[i]] = True
    for i in range(n):
        if labels[i] < 0:
            return False
        if not has_child[i]:
            if labels[i] != 0:
                return False
        elif i == 0:
            if labels[i] != child_sum[i]:
                return False
        elif labels[i] > 1 + child_sum[i]:
            return False
    return True


def tree_text(labels: list[int], parent: list[int]) -> str:
    """The canonical text form LABEL or LABEL(child child ...), built iteratively."""
    kids = children_of(parent)
    out: list[str] = []
    stack: list[object] = [0]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append(str(labels[item]))
        if kids[item]:
            out.append("(")
            stack.append(")")
            for pos, child in enumerate(reversed(kids[item])):
                stack.append(child)
                if pos < len(kids[item]) - 1:
                    stack.append(" ")
    return "".join(out)


def parse_tree_text(text: str) -> tuple[list[int], list[int]]:
    """Inverse of ``tree_text``; raises ValueError on anything off the grammar."""
    labels: list[int] = []
    parent: list[int] = []
    open_nodes: list[int] = []
    pos = 0
    n = len(text)
    expect_label = True
    while pos < n:
        ch = text[pos]
        if expect_label:
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            digits = text[start:pos]
            if not digits or (len(digits) > 1 and digits[0] == "0"):
                raise ValueError(f"bad label at {start}")
            labels.append(int(digits))
            parent.append(open_nodes[-1] if open_nodes else -1)
            if parent[-1] == -1 and len(labels) > 1:
                raise ValueError("more than one root")
            expect_label = False
        elif ch == "(":
            open_nodes.append(len(labels) - 1)
            pos += 1
            expect_label = True
        elif ch == " " and open_nodes:
            pos += 1
            expect_label = True
        elif ch == ")" and open_nodes:
            open_nodes.pop()
            pos += 1
        else:
            raise ValueError(f"unexpected {ch!r} at {pos}")
    if expect_label or open_nodes:
        raise ValueError("truncated tree text")
    return labels, parent


def walk_tree(tree) -> tuple[list[int], list[int]]:
    """Preorder (labels, parent) of any object with ``.label`` and ``.children``.

    This is how the benchmark reads trees the program returns; it never
    compares them with the program's own equality.
    """
    labels: list[int] = []
    parent: list[int] = []
    stack = [(tree, -1)]
    while stack:
        node, up = stack.pop()
        me = len(labels)
        labels.append(node.label)
        parent.append(up)
        for child in reversed(node.children):
            stack.append((child, me))
    return labels, parent
