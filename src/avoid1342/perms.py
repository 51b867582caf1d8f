"""Permutations in one-line notation, pattern containment, and the brute-force oracle.

A permutation of length n is a sequence containing each of 1..n exactly once;
positions and values are both 1-based in all documented contracts.  The same
type doubles as a pattern: ``p`` contains ``q`` when some subsequence of ``p``
is order-isomorphic to ``q``, and avoids it otherwise.

All functions here are pure and all values immutable, so everything may be
shared freely across threads.  ``iter_avoiders``/``count_avoiders`` share one
prefix walk; the pattern, the selection and ``first_entry`` all prune
prefixes, so no finished permutation is filtered.  ``first_entry`` also lets
callers partition the search space into disjoint sub-ranges and fan them out
to workers.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Literal, Sequence, get_args

from .errors import DomainError, InvalidPermutationError, ResourceLimitError

#: Largest n accepted by the exhaustive enumerator unless the caller raises it.
DEFAULT_CEILING = 12

Selection = Literal["all", "indecomposable", "first_entry_is_1"]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation.

    >>> Permutation.from_text("361542").values
    (3, 6, 1, 5, 4, 2)
    >>> str(Permutation((3, 6, 1, 5, 4, 2)))
    '361542'
    """

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if sorted(self.values) != list(range(1, n + 1)):
            raise InvalidPermutationError(
                f"not a permutation of 1..{n}: {self.values!r}"
            )

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse either the digit form ("361542") or the comma form ("3,6,1,5,4,2")."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            if "," in text:
                vals = tuple(int(part) for part in text.split(","))
            else:
                vals = tuple(int(ch) for ch in text)
        except ValueError as exc:
            raise InvalidPermutationError(f"unreadable permutation text: {text!r}") from exc
        return cls(vals)

    def __str__(self) -> str:
        if len(self.values) <= 9:
            return "".join(str(v) for v in self.values)
        return ",".join(str(v) for v in self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True)
class ClassSignature:
    """The left-to-right minima of a permutation: ((position, value), ...), 1-based.

    Two permutations of the same length are in the same class exactly when
    their signatures are equal.
    """

    minima: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.minima:
            positions = [pos for pos, _ in self.minima]
            values = [val for _, val in self.minima]
            if positions[0] != 1:
                raise InvalidPermutationError("first left-to-right minimum must sit at position 1")
            if positions != sorted(positions) or len(set(positions)) != len(positions):
                raise InvalidPermutationError("minima positions must strictly increase")
            if values != sorted(values, reverse=True) or len(set(values)) != len(values):
                raise InvalidPermutationError("minima values must strictly decrease")

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(pos for pos, _ in self.minima)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(val for _, val in self.minima)


def pattern_of(vals: Sequence[int]) -> Permutation:
    """The pattern of a sequence of distinct integers: its order-isomorphic permutation.

    >>> pattern_of((3, 6, 5)).values
    (1, 3, 2)
    """
    order = sorted(vals)
    return Permutation(tuple(order.index(v) + 1 for v in vals))


def _contains(vals: Sequence[int], q: Sequence[int]) -> bool:
    """Depth-first search for an occurrence of pattern q, pruned by remaining length."""
    n, k = len(vals), len(q)
    if k == 0:
        raise DomainError("pattern must be nonempty")
    if k > n:
        return False
    # q_less[t][a] == True iff q[a] < q[t]; chosen values must mirror this.
    q_less = [[q[a] < q[t] for a in range(t)] for t in range(k)]
    chosen: list[int] = []

    def dfs(t: int, start: int) -> bool:
        if t == k:
            return True
        for pos in range(start, n - (k - t) + 1):
            v = vals[pos]
            if all((chosen[a] < v) == q_less[t][a] for a in range(t)):
                chosen.append(v)
                if dfs(t + 1, pos + 1):
                    return True
                chosen.pop()
        return False

    return dfs(0, 0)


def contains(p: Permutation, q: Permutation) -> bool:
    """True iff p contains an occurrence of the pattern q.

    >>> contains(Permutation.from_text("361542"), Permutation.from_text("1342"))
    False
    >>> contains(Permutation.from_text("361542"), Permutation.from_text("132"))
    True
    """
    return _contains(p.values, q.values)


def count_occurrences(p: Permutation, q: Permutation) -> int:
    """Number of position subsets of p that are order-isomorphic to q.

    Exhaustive over all subsets; meant for desk-scale inputs.

    >>> count_occurrences(Permutation.from_text("1432"), Permutation.from_text("132"))
    3
    """
    k = len(q)
    if k == 0:
        raise DomainError("pattern must be nonempty")
    qv = q.values
    target = pattern_of(qv).values
    return sum(1 for sub in combinations(p.values, k) if pattern_of(sub).values == target)


def left_to_right_minima(p: Permutation) -> ClassSignature:
    """All entries smaller than everything before them, with their 1-based positions.

    >>> left_to_right_minima(Permutation.from_text("34125")).minima
    ((1, 3), (3, 1))
    """
    out = []
    current = None
    for i, v in enumerate(p.values, start=1):
        if current is None or v < current:
            out.append((i, v))
            current = v
    return ClassSignature(tuple(out))


def same_class(p: Permutation, q: Permutation) -> bool:
    """True iff p and q have equal length and identical left-to-right minima."""
    if len(p) != len(q):
        return False
    return left_to_right_minima(p) == left_to_right_minima(q)


def is_indecomposable(p: Permutation) -> bool:
    """True iff no cut splits p with everything before larger than everything after.

    The empty permutation decomposes into zero blocks and is reported as
    decomposable.

    >>> is_indecomposable(Permutation.from_text("21"))
    False
    >>> is_indecomposable(Permutation.from_text("35124"))
    True
    """
    return len(_block_spans(p.values)) == 1


def _block_spans(vals: Sequence[int]) -> list[tuple[int, int]]:
    """Half-open index spans of the maximal skew decomposition of ``vals``.

    ``vals`` is a permutation of 1..n, so a cut after c is valid iff the
    prefix minimum is n - c + 1, i.e. the prefix holds exactly the top c
    values.
    """
    n = len(vals)
    spans = []
    start = 0
    low = n + 1
    for c, v in enumerate(vals, start=1):
        low = min(low, v)
        if low == n - c + 1:
            spans.append((start, c))
            start = c
    return spans


def decompose(p: Permutation) -> list[Permutation]:
    """The unique maximal decomposition into indecomposable blocks.

    Every block is reduced to its own value range; block i originally holds
    larger values than block i+1.  ``compose_blocks`` reverses this.

    >>> [str(b) for b in decompose(Permutation.from_text("312"))]
    ['1', '12']
    >>> [str(b) for b in decompose(Permutation.from_text("321"))]
    ['1', '1', '1']
    """
    vals, n = p.values, len(p)
    # the block ending at index b holds the values n-b+1..n-b+(b-a)
    return [Permutation(tuple(v - n + b for v in vals[a:b])) for a, b in _block_spans(vals)]


def compose_blocks(blocks: Sequence[Permutation]) -> Permutation:
    """Concatenate blocks with descending value offsets (inverse of ``decompose``)."""
    sizes = [len(b) for b in blocks]
    out: list[int] = []
    for i, b in enumerate(blocks):
        offset = sum(sizes[i + 1:])
        out.extend(v + offset for v in b.values)
    return Permutation(tuple(out))


def normalize(p: Permutation) -> Permutation:
    """The unique 132-avoiding permutation in p's class.

    Left-to-right minima stay fixed; every other slot receives the smallest
    unplaced non-minimum exceeding the most recent minimum.  Idempotent.

    >>> str(normalize(Permutation.from_text("32514")))
    '32415'
    >>> str(normalize(Permutation.from_text("361542")))
    '341256'
    """
    signature = dict(left_to_right_minima(p).minima)
    min_values = set(signature.values())
    pool = sorted(v for v in p.values if v not in min_values)
    out: list[int] = []
    current = 0
    for i in range(1, len(p) + 1):
        if i in signature:
            current = signature[i]
            out.append(current)
        else:
            j = bisect.bisect_right(pool, current)
            out.append(pool.pop(j))
    return Permutation(tuple(out))


def _prunes(
    n: int, pattern: Permutation, selection: Selection, first_entry: int | None, ceiling: int
) -> tuple[range | None, bool]:
    """Check the enumerator's arguments and turn the selection into prefix prunes.

    Returns the allowed first entries (``None``: any) and whether prefixes
    that split off a top block are dropped.
    """
    if len(pattern) == 0:
        raise DomainError("pattern must be nonempty")
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if n > ceiling:
        raise ResourceLimitError(
            f"exhaustive enumeration refused for n={n} (ceiling {ceiling}); "
            "raise the ceiling explicitly to proceed"
        )
    if selection not in get_args(Selection):
        raise DomainError(f"unknown selection {selection!r}")
    if first_entry is not None and not 1 <= first_entry <= n:
        raise DomainError(f"first_entry must lie in 1..{n}, got {first_entry}")
    first = None if first_entry is None else range(first_entry, first_entry + 1)
    if selection == "first_entry_is_1":
        first = range(1, 2) if first is None else range(first.start, min(first.stop, 2))
    return first, selection == "indecomposable"


def _occurrence_ends_at_last(vals: list[int], q: Sequence[int]) -> bool:
    """Does some occurrence of q use the last element of vals as its final entry?"""
    k = len(q)
    last_index = len(vals) - 1
    last = vals[last_index]
    q_less = [[q[a] < q[t] for a in range(t)] for t in range(k)]
    chosen: list[int] = []

    def dfs(t: int, start: int) -> bool:
        if t == k - 1:
            return True
        for pos in range(start, last_index - (k - 2 - t)):
            v = vals[pos]
            if (v < last) != q_less[k - 1][t]:
                continue
            if all((chosen[a] < v) == q_less[t][a] for a in range(t)):
                chosen.append(v)
                if dfs(t + 1, pos + 1):
                    return True
                chosen.pop()
        return False

    return dfs(0, 0)


def _walk(
    n: int, q: Sequence[int], first: range | None, indecomposable: bool
) -> Iterator[tuple[int, ...]]:
    """Values of every n-permutation avoiding q, in lexicographic order.

    One depth-first loop over prefixes, smallest next value first.  A prefix
    is dropped as soon as its last entry ends an occurrence of q, its first
    entry lies outside ``first``, or (``indecomposable``) a proper prefix of
    length c holds exactly the top c values, i.e. its minimum is n - c + 1:
    every extension keeps that cut.
    """
    if n == 0:  # the empty permutation has no first entry and no blocks
        if first is None and not indecomposable:
            yield ()
        return
    if first is None:
        first = range(1, n + 1)
    k = len(q)
    vals: list[int] = []
    used = [False] * (n + 1)
    v, stop = first.start, first.stop  # next candidate and bound at this depth
    while True:
        while v < stop and used[v]:
            v += 1
        if v >= stop:  # every candidate tried: back up one entry
            if not vals:
                return
            used[vals[-1]] = False
            v = vals.pop() + 1
            stop = n + 1 if vals else first.stop
            continue
        vals.append(v)
        c = len(vals)
        if (c < k or not _occurrence_ends_at_last(vals, q)) and not (
            indecomposable and c < n and min(vals) == n - c + 1
        ):
            if c == n:
                yield tuple(vals)
            else:
                used[v] = True
                v, stop = 1, n + 1
                continue
        vals.pop()
        v += 1


def iter_avoiders(
    n: int,
    pattern: Permutation,
    selection: Selection = "all",
    *,
    first_entry: int | None = None,
    ceiling: int = DEFAULT_CEILING,
) -> Iterator[Permutation]:
    """Stream all n-permutations avoiding ``pattern`` that pass ``selection``.

    Yields each avoider exactly once, in lexicographic order.  The pattern and
    the selection both prune prefixes, so only prefixes of selected avoiders
    are ever extended.  ``first_entry`` (in 1..n) restricts the stream to
    permutations starting with that value (disjoint sub-ranges for parallel
    callers).
    """
    first, indecomposable = _prunes(n, pattern, selection, first_entry, ceiling)
    for vals in _walk(n, pattern.values, first, indecomposable):
        yield Permutation(vals)


def count_avoiders(
    n: int,
    pattern: Permutation,
    selection: Selection = "all",
    *,
    first_entry: int | None = None,
    ceiling: int = DEFAULT_CEILING,
) -> int:
    """Exact number of n-permutations avoiding ``pattern`` that pass ``selection``."""
    first, indecomposable = _prunes(n, pattern, selection, first_entry, ceiling)
    return sum(1 for _ in _walk(n, pattern.values, first, indecomposable))
