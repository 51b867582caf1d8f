"""Permutations in one-line notation, pattern containment, and the brute-force oracle.

A permutation of length n is a sequence containing each of 1..n exactly once;
positions and values are both 1-based in all documented contracts.  The same
type doubles as a pattern: ``p`` contains ``q`` when some subsequence of ``p``
is order-isomorphic to ``q``, and avoids it otherwise.

All functions here are pure and all values immutable, so everything may be
shared freely across threads.  ``iter_avoiders`` streams by a prefix walk and
``count_avoiders`` counts prefix states one length at a time, so the stream
and the count are two independent routes.  In both, the pattern, the
selection and ``first_entry`` prune prefixes, so no finished permutation is
filtered, and n above ``ceiling`` (default ``errors.DEFAULT_CEILING``) is
refused by ``errors.refuse_above``.

Neither the walk nor ``contains`` searches for the pattern, and neither
does the count.  Each carries the occurrences of the prefixes q[:j] of the
pattern q in its prefix, one level per j, and keeps only those that can
still matter.  The relevant gaps of an occurrence t of q[:j] are those
that hold a later entry of q; occurrence u of the same level dominates t
when each relevant gap of t lies inside u's gap with the same index, and
then every completion of t also completes u.  ``_order`` reads off a
level's relevant boundaries and its rule once per pattern: the key is all
but one of the boundaries that dominance reads, and of the occurrences
with one key, the best on the remaining boundary dominates the rest.  So
the count masks every boundary that bounds no relevant gap and keeps one
occurrence per key before a state becomes a layer key, and the walk's step
keeps one occurrence per key of a level, replacing it when a new one
dominates it.  Levels whose dominance is equality are left alone.  For the
pattern 12...k that leaves one occurrence per level.

The walk and ``contains`` share one occurrence state: every level is a
list of occurrences but the last, which is kept only as the bitmask
``forbid`` of the values that would complete an occurrence.
``_occurrence_state`` sets it up and returns the one step that appends a
value to the prefix.  The walk skips a candidate in ``forbid`` before it is
appended and restores the state when it backs up; ``contains`` takes the
step once per entry of its one permutation and stops at the first value in
``forbid``.
"""
from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Literal, Sequence, get_args

from ._frozen import Frozen
from .errors import DEFAULT_CEILING, DomainError, InvalidPermutationError, refuse_above

Selection = Literal["all", "indecomposable", "first_entry_is_1"]


class Permutation(Frozen):
    """A permutation of {1..n} in one-line notation.

    ``values`` is stored as a tuple; an entry that is not an ``int`` (a
    ``bool`` or a ``float`` included) is refused.

    >>> Permutation.from_text("361542").values
    (3, 6, 1, 5, 4, 2)
    >>> str(Permutation((3, 6, 1, 5, 4, 2)))
    '361542'
    """

    __slots__ = __match_args__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        values = tuple(values)
        n = len(values)
        if not {int}.issuperset(map(type, values)) or sorted(values) != list(range(1, n + 1)):
            raise InvalidPermutationError(f"not a permutation of 1..{n}: {values!r}")
        _set_values(self, values)

    def _fields(self) -> tuple:
        return (self.values,)

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse either the digit form ("361542") or the comma form ("3,6,1,5,4,2").

        Past the outer whitespace only ASCII digits are read: each comma part
        is a nonempty run of them, so "1, 2" and "1,+2" are refused.
        """
        text = text.strip()
        if not text:
            return cls(())
        parts = text.split(",") if "," in text else list(text)
        if not all(part.isascii() and part.isdigit() for part in parts):  # not all that int() reads
            raise InvalidPermutationError(f"unreadable permutation text: {text!r}")
        try:
            values = tuple(int(part) for part in parts)
        except ValueError:  # a run past the interpreter's cap on digits
            longest = max(len(part) for part in parts)
            raise InvalidPermutationError(f"an entry of {longest} digits is too long to read") from None
        return cls(values)

    def __str__(self) -> str:
        if len(self.values) <= 9:
            return "".join(str(v) for v in self.values)
        return ",".join(str(v) for v in self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


_set_values = Permutation.values.__set__  # stores past __setattr__, faster than object's


class ClassSignature(Frozen):
    """The left-to-right minima of a permutation: ((position, value), ...), 1-based.

    Two permutations of the same length are in the same class exactly when
    their signatures are equal.
    """

    __slots__ = __match_args__ = ("minima",)
    minima: tuple[tuple[int, int], ...]

    def __init__(self, minima: tuple[tuple[int, int], ...]):
        if minima:
            positions = [pos for pos, _ in minima]
            values = [val for _, val in minima]
            if positions[0] != 1:
                raise InvalidPermutationError("first left-to-right minimum must sit at position 1")
            if positions != sorted(positions) or len(set(positions)) != len(positions):
                raise InvalidPermutationError("minima positions must strictly increase")
            if values != sorted(values, reverse=True) or len(set(values)) != len(values):
                raise InvalidPermutationError("minima values must strictly decrease")
        object.__setattr__(self, "minima", minima)

    def _fields(self) -> tuple:
        return (self.minima,)

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


def contains(p: Permutation, q: Permutation) -> bool:
    """True iff p contains an occurrence of the pattern q.

    One left-to-right pass over p.  It takes the walk's occurrence step
    (``_occurrence_state``) once per entry and stops at the first value in
    ``forbid``; a permutation has no backtracking, so nothing is copied or
    truncated.  It drops dominated occurrences as the walk does.  On a
    2-core VM with Python 3.11 it takes 0.02 s for 1342 on a 1342-avoider
    of length 2000 from a random recursive tree, 0.005 s for 132 on its
    ``normalize`` representative, and 0.01 s for 1243 on the identity of
    length 2000.  The slowest patterns of length 4 on the identity or the
    reverse take 0.04 s at n = 300, 0.8 s at n = 1000 and 2-3 s at
    n = 2000: where dominance at a level is equality, as at q[:1] when
    q[0] is neither 1 nor len(q), every entry stays there.

    >>> contains(Permutation.from_text("361542"), Permutation.from_text("1342"))
    False
    >>> contains(Permutation.from_text("361542"), Permutation.from_text("132"))
    True
    """
    vals, q = p.values, q.values
    n, k = len(vals), len(q)
    if k == 0:
        raise DomainError("pattern must be nonempty")
    if k > n:
        return False
    _, forbid, extend = _occurrence_state(n, q)
    used = 0
    replaced: list = []  # never read: nothing backs up
    for c, v in enumerate(vals, start=1):
        bit = 1 << v
        if forbid & bit:
            return True
        used |= bit
        forbid = extend(v, c, used, forbid, replaced)
    return False


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
    out: list[int] = []
    offset = sum(len(b) for b in blocks)
    for b in blocks:
        offset -= len(b)  # the total size of the blocks to the right
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
    return Permutation(tuple(_normalize_values(p.values)))


def _normalize_values(vals: Sequence[int]) -> list[int]:
    """The 132-avoiding permutation of 1..n with the running minima of ``vals``.

    ``vals`` is any length-n sequence whose running minima are those of some
    permutation of 1..n, such as that permutation itself; only the running
    minimum is read, so sequences with the same running minima give the same
    output.  Each new minimum v makes the values between v and the previous
    minimum eligible, all below the earlier ones, so the unplaced eligible
    values form a stack with the smallest on top, and every other slot pops it.
    """
    out: list[int] = []
    eligible: list[int] = []
    low = len(vals) + 1  # the running minimum
    for v in vals:
        if v < low:
            eligible.extend(range(low - 1, v, -1))
            low = v
            out.append(v)
        else:
            out.append(eligible.pop())
    return out


def _prunes(
    n: int, pattern: Permutation, selection: Selection, first_entry: int | None, ceiling: int
) -> tuple[range | None, bool]:
    """Check the enumerator's arguments and turn the selection into prefix prunes.

    Returns the allowed first entries (``None``: any) and whether prefixes
    that split off a top block are dropped.
    """
    if len(pattern) == 0:
        raise DomainError("pattern must be nonempty")
    refuse_above(n, ceiling)
    if selection not in get_args(Selection):
        raise DomainError(f"unknown selection {selection!r}")
    if first_entry is not None and not 1 <= first_entry <= n:
        raise DomainError(f"first_entry must lie in 1..{n}, got {first_entry}")
    first = None if first_entry is None else range(first_entry, first_entry + 1)
    if selection == "first_entry_is_1":
        first = range(1, 2) if first is None else range(first.start, min(first.stop, 2))
    return first, selection == "indecomposable"


def _gap(t: tuple[int, ...], r: int) -> int:
    """Bitmask of the values strictly between t[r] and t[r + 1]."""
    return (1 << t[r + 1]) - (1 << (t[r] + 1))


def _order(q: Sequence[int], j: int) -> tuple[list[int], tuple | None]:
    """How an occurrence t of q[:j] (sorted, framed as t[0] and t[j + 1]) can matter.

    Its relevant gaps are those that hold a later entry of q; only their
    boundaries t[1..j] are read.  u dominates t, i.e. each relevant gap of t
    lies inside u's, iff u[b] == t[b] where b lies between two relevant
    gaps and sign * u[b] <= sign * t[b] where b bounds just one, with sign
    1 if that gap is above b and -1 if below.  Returns the boundaries that
    bound no relevant gap (masked) and the level's rule for dropping
    dominated occurrences: ``None`` if no boundary has a sign, so that
    dominance is equality, else ``(key, b, sign)`` for one signed boundary
    b, the new entry's if that is signed.  ``key`` reads the other
    boundaries that are not masked; of the occurrences with one key, the
    one with the least sign * t[b] dominates the rest.
    """
    relevant = {sum(1 for a in range(j) if q[a] < q[i]) for i in range(j, len(q))}
    masked, same, signed = [], [], []
    for b in range(1, j + 1):
        if b - 1 in relevant and b in relevant:
            same.append(b)
        elif b in relevant:  # the gap above b: u's starts no higher
            signed.append((b, 1))
        elif b - 1 in relevant:  # the gap below b: u's ends no lower
            signed.append((b, -1))
        else:
            masked.append(b)
    if not signed:
        return masked, None
    new = 1 + sum(1 for a in range(j - 1) if q[a] < q[j - 1])
    b, sign = next((s for s in signed if s[0] == new), signed[-1])
    keys = same + [a for a, _ in signed if a != b]
    return masked, (itemgetter(*keys) if keys else _no_key, b, sign)


def _no_key(t: tuple[int, ...]) -> None:
    return None


def _dominant(rule: tuple | None):
    """A function that keeps one occurrence of a level per key of ``rule`` (see ``_order``).

    It keeps the one best on the rule's signed boundary.  The occurrences it
    is given are masked, so equal keys and boundaries mean equal
    occurrences.  Where dominance is equality it keeps the distinct ones.
    """
    if rule is None:
        return set
    key, b, sign = rule

    def best(occs: list[tuple[int, ...]]) -> Iterable[tuple[int, ...]]:
        kept: dict = {}
        for s in occs:
            e = key(s)
            u = kept.get(e)
            if u is None or sign * s[b] < sign * u[b]:
                kept[e] = s
        return kept.values()

    return best


def _occurrence_state(n: int, q: Sequence[int]):
    """The occurrence state (see ``_walk``) of the empty prefix for q in 1..n, and its step.

    ``extend(v, c, used, forbid, undo) -> forbid`` appends v as entry c of a
    prefix whose values are then ``used``; levels change in place, and each
    occurrence that a dominating one replaces is logged to ``undo`` as
    (level, index, occurrence).
    """
    k = len(q)
    ranks = [sum(1 for a in range(j) if q[a] < q[j]) for j in range(k)]
    base = (0, n + 1)
    levels = [[base]] + [[] for _ in range(k - 2)]
    forbid = _gap(base, 0) if k == 1 else 0
    top = levels[-1]  # level k - 2
    # v in t's gap there sits at index R + 1 of t + v, whose gap of q[-1]
    # runs from index H to H + 1: as indices of t, None where the end is v
    R, H = ranks[k - 2], ranks[-1]
    low = H if H <= R else None if H == R + 1 else H - 1
    high = H + 1 if H < R else None if H == R else H
    fixed = None if low is None or high is None else low  # that gap is t's own
    # level j keeps one occurrence per key of its rule (see ``_order``)
    slots: list = [None] * (k - 1)
    for j in range(1, k - 1):
        _, rule = _order(q, j)
        if rule:
            slots[j] = (*rule, {})

    def extend(v: int, c: int, used: int, forbid: int, undo: list) -> int:
        for t in top:
            if t[R] < v < t[R + 1]:
                end = v if high is None else t[high]
                forbid |= (1 << end) - (2 << (v if low is None else t[low]))
        avail = ~(used | forbid)
        # an occurrence of q[:j + 1] made now forbids position c + k - j - 1 first
        for j in range(k - 3, max(c + k - n - 1, 0) - 1, -1):
            r, r1 = ranks[j], ranks[j + 1]
            level, slot = levels[j + 1], slots[j + 1]
            part = fixed if level is top else None
            for t in levels[j]:
                if t[r] < v < t[r + 1]:
                    t = t[:r + 1] + (v,) + t[r + 1:]
                    if not _gap(t, r1) & avail:
                        continue
                    if part is not None and not _gap(t, part) & avail:
                        continue  # it could forbid no value left
                    if slot is None:
                        level.append(t)
                        continue
                    key, b, sign, index = slot
                    kt = key(t)
                    i = index.get(kt, len(level))
                    if i >= len(level) or key(level[i]) != kt:  # none has t's key
                        index[kt] = len(level)
                        level.append(t)
                    elif sign * (t[b] - level[i][b]) < 0:  # t dominates
                        undo.append((level, i, level[i]))
                        level[i] = t
        return forbid

    return levels, forbid, extend


def _walk(
    n: int, q: Sequence[int], first: range | None, indecomposable: bool
) -> Iterator[tuple[int, ...]]:
    """Values of every n-permutation avoiding q, in lexicographic order.

    One depth-first loop over prefixes, smallest next value first.  A value
    is never appended if it would end an occurrence of q, and a prefix is
    dropped if its first entry lies outside ``first`` or (``indecomposable``)
    a proper prefix of length c holds exactly the top c values, i.e. its
    minimum is n - c + 1: every extension keeps that cut.

    The occurrence state, for k = len(q): level j holds occurrences of
    q[:j] in the prefix, each as its sorted values framed by 0 and n + 1
    (level 0 is the one empty occurrence).  An occurrence t of q[:j] takes
    as its next entry exactly the values of its gap for q[j], the open
    interval (t[r], t[r + 1]) where r = ranks[j] counts the entries of q[:j]
    below q[j].  Appending v therefore offers t with v inserted to level
    j + 1 for every t in level j whose gap holds v.  A level whose
    dominance is not equality keeps one occurrence per key of its rule (see
    ``_order``), as the count does.  An offered occurrence is dropped if the
    kept one with its key dominates it, and replaces that one if it
    dominates it; with one signed boundary no kept occurrence is dominated,
    with more a dominated one can stay.  Finding the key costs O(1).  Levels
    only grow along a path, and a replaced occurrence is logged, so backing
    up restores the logged ones and truncates each level to its length at
    that depth.

    Only the top level is folded: level k - 1 is ``forbid``, the union of
    its gaps for q[-1], so a candidate in ``forbid`` would complete q and
    is skipped before it is appended.  Appending v to an occurrence t of
    level k - 2 adds the gap of q[-1] in t + v to ``forbid``, its ends read
    off t and v without building t + v.  No occurrence is kept whose gap
    for its next entry holds no value that is neither used nor forbidden,
    or that is made too late to forbid a position <= n; nor is one of level
    k - 2 whose gap of q[-1], where that is a gap of t, holds no such value.

    Appending a value is the one step ``extend`` that ``_occurrence_state``
    returns and ``contains`` takes too; the walk saves and restores around it.

    The last two entries are placed in one go.  At depth n - 1, once the
    cut check has passed v, one value w is left, and ``extend`` can only
    grow ``forbid`` there: an occurrence it made would forbid a position
    past n, so it changes no level and logs nothing.  The walk calls it
    once without saving any state, yields the prefix, v and w unless w is
    then forbidden, and goes on to the next candidate.
    """
    if n == 0:  # the empty permutation has no first entry and no blocks
        if first is None and not indecomposable:
            yield ()
        return
    if n == 1:  # (1,) passes every selection and first entry, and avoids all but q = 1
        if len(q) > 1:
            yield (1,)
        return
    if first is None:
        first = range(1, n + 1)
    levels, forbid, extend = _occurrence_state(n, q)
    everything = (2 << n) - 2  # the bitmask of 1..n
    vals: list[int] = []
    saved: list[tuple[int, int, list[int], int]] = []
    undo: list[tuple[list, int, tuple[int, ...]]] = []
    used = low = 0  # bitmask of the prefix's values, its minimum once nonempty
    v, stop = first.start, first.stop  # next candidate and bound at this depth
    while True:
        free = ((1 << stop) - 1) >> v << v & ~(used | forbid)  # v..stop-1, if any
        if not free:  # every candidate tried: back up one entry
            if not vals:
                return
            v = vals.pop()
            used ^= 1 << v
            forbid, low, lengths, replaced = saved.pop()
            while len(undo) > replaced:
                level, i, t = undo.pop()
                level[i] = t
            for level, length in zip(levels, lengths):
                del level[length:]
            v += 1
            stop = n + 1 if vals else first.stop
            continue
        v = (free & -free).bit_length() - 1
        c = len(vals) + 1
        new_low = v if c == 1 or v < low else low
        if indecomposable and new_low == n - c + 1:
            v += 1
            continue
        if c == n - 1:  # one value is left after v, and extend only grows forbid here
            rest = everything ^ used ^ 1 << v
            if not extend(v, c, used | 1 << v, forbid, undo) & rest:
                yield (*vals, v, rest.bit_length() - 1)
            v += 1
            continue
        saved.append((forbid, low, [len(level) for level in levels], len(undo)))
        used |= 1 << v
        forbid = extend(v, c, used, forbid, undo)
        vals.append(v)
        low = new_low
        # a forbidden value left must still be placed: back up at once
        v, stop = 1, 1 if forbid & ~used else n + 1


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
    permutations starting with that value.

    >>> [str(p) for p in iter_avoiders(3, Permutation.from_text("132"))]
    ['123', '213', '231', '312', '321']
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
    """Exact number of n-permutations avoiding ``pattern`` that pass ``selection``.

    Counts prefix states, not avoiders.  With m values left, a prefix's
    completions depend only on its occurrences of q[:j] (0 < j < k =
    len(q)), each stored as the number of values left below each of its
    values, framed by 0 and m.  Only occurrences whose gap for q[j] is
    nonempty are kept, a boundary that bounds no relevant gap is masked as
    -1, and of the occurrences with one key of the level's rule only the
    one that dominates the others is kept (see ``_order``), so that more
    prefixes share a state.  ``"indecomposable"`` adds the number of values
    left below the prefix minimum.  One layer ``{state: prefixes}`` steps
    from m = n to 0.  Appending the x-th smallest value left extends every
    occurrence whose gap holds x (and the empty one) and lowers every value
    above it; the new state is dead if it holds an occurrence of q[:k - 1],
    whose gap must be filled later.  The walk of ``iter_avoiders`` is a
    separate route to the same numbers.

    >>> count_avoiders(6, Permutation.from_text("1342"))
    512
    """
    first, indecomposable = _prunes(n, pattern, selection, first_entry, ceiling)
    if n == 0:  # the empty permutation has no first entry and no blocks
        return int(first is None and not indecomposable)
    q, k = pattern.values, len(pattern)
    if k == 1:  # the empty occurrence is already dead
        return 0
    ranks = [sum(1 for a in range(j) if q[a] < q[j]) for j in range(k)]
    orders = [_order(q, j) for j in range(k - 1)]
    masks = [[]]  # per level, the boundaries masked there first
    for j in range(1, k - 1):
        p = ranks[j - 1] + 1  # the index of the new entry
        masked_before = {b + (b >= p) for b in orders[j - 1][0]}
        masks.append([b for b in orders[j][0] if b not in masked_before])
    dominant = [_dominant(rule) for _, rule in orders[1:]]
    layer = {(n, ((),) * (k - 2)): 1}
    for m in range(n, 0, -1):
        nxt: dict[tuple, int] = {}
        empty = ((0, m),)
        for (low, levels), ways in layer.items():
            for x in range(1, m + 1) if m < n or first is None else first:
                new_low = x - 1 if x <= low else low
                if indecomposable and 0 < new_low == m - 1:  # a proper prefix of top values
                    continue
                new: list[list[tuple[int, ...]]] = [[] for _ in levels]
                dead = False
                for j, occs in enumerate((empty, *levels)):
                    r, r1 = ranks[j], ranks[j + 1]
                    for t in occs:
                        s = tuple([b - 1 if b >= x else b for b in t])
                        if j and s[r] < s[r + 1]:
                            new[j - 1].append(s)
                        if t[r] < x <= t[r + 1]:
                            s = s[:r + 1] + (x - 1,) + s[r + 1:]
                            if s[r1] < s[r1 + 1]:
                                if j == k - 2:
                                    dead = True
                                    break
                                for b in masks[j + 1]:
                                    s = s[:b] + (-1,) + s[b + 1:]
                                new[j].append(s)
                    if dead:
                        break
                if dead:
                    continue
                state = tuple(
                    tuple(sorted(keep(occs))) if len(occs) > 1 else tuple(occs)
                    for keep, occs in zip(dominant, new)
                )
                key = (new_low if indecomposable else 0, state)
                nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    return sum(layer.values())
