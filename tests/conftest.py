import functools
import random
from itertools import permutations as iter_permutations

import pytest
from hypothesis import strategies as st

from avoid1342 import DomainError, LabeledPlaneTree, Permutation
from avoid1342.bijections import _beat_extents
from avoid1342.trees import _label_sum_tables

#: Largest tree size ``unrank`` serves; its tables take about a second to build.
UNRANK_MAX_N = 100


def extents_refuse_1342(vals):
    """True iff the O(n) extents pass of ``bijections`` refuses vals as containing 1342."""
    try:
        _beat_extents(tuple(vals))
    except DomainError as refused:
        assert refused.args == ("permutation contains 1342",)
        return True
    return False


@st.composite
def perm_strategy(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_n, max_n))
    vals = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(tuple(vals))


@pytest.fixture(scope="session")
def all_perms_by_n():
    """Every permutation of every length up to 7, as raw tuples."""
    return {n: list(iter_permutations(range(1, n + 1))) for n in range(0, 8)}


def random_valid_tree(seed, n, bushy=True):
    """A seeded valid labeled tree on n nodes, built bottom-up without recursion.

    Bushy shapes hang node i under a uniform earlier node; otherwise the
    shape is a path.  Labels are drawn by ``_random_labels``.
    """
    rng = random.Random(seed)
    parent = [-1] + [rng.randrange(i) if bushy else i - 1 for i in range(1, n)]
    return _random_labels(rng, parent)


def random_caterpillar_tree(seed, n):
    """A seeded valid labeled caterpillar on n nodes, built without recursion.

    The shape is a spine with one leaf hanging off each spine node, on a
    side drawn at random.  Labels are drawn by ``_random_labels``.
    """
    rng = random.Random(seed)
    parent = [-1] * n
    spine = 0
    for i in range(1, n, 2):
        pair = range(i, min(i + 2, n))
        for j in pair:
            parent[j] = spine
        spine = rng.choice(pair)
    return _random_labels(rng, parent)


def _random_labels(rng, parent):
    """Label the tree of ``parent`` (each node after its parent) bottom-up.

    Each internal non-root label is uniform in 0..1 + (child sum), the root
    carries its child sum and leaves carry 0.
    """
    n = len(parent)
    kids = [[] for _ in range(n)]
    for i in range(1, n):
        kids[parent[i]].append(i)
    built = [None] * n
    for i in range(n - 1, -1, -1):  # children carry larger indices
        child_sum = sum(built[c].label for c in kids[i])
        label = 0 if not kids[i] else child_sum if i == 0 else rng.randint(0, child_sum + 1)
        built[i] = LabeledPlaneTree(label, tuple(built[c] for c in kids[i]))
    return built[0]


def random_uniform_tree(seed, n):
    """A seeded valid labeled tree drawn uniformly from the trees on n nodes (``unrank``)."""
    return unrank(n, random.Random(seed).randrange(sum(_unrank_tables()[1][n - 1])))


@functools.cache
def _unrank_tables():
    """The label-sum tables for every tree of at most ``UNRANK_MAX_N`` nodes, built once."""
    return _label_sum_tables(UNRANK_MAX_N - 1)


def _pick(blocks, r):
    """The key of the block that holds rank r, among (key, size) blocks in order, and r's offset in it."""
    for key, size in blocks:
        if r < size:
            return key, r
        r -= size
    raise ValueError("rank out of range")


def unrank(n, r):
    """The valid labeled tree of rank r among the ``count_beta01(n)`` trees on n nodes.

    Each rank 0..count-1 names one tree (the recursive method of Flajolet,
    Zimmermann and Van Cutsem 1994), so a uniform rank gives a uniform tree.
    The descent reads the tables of ``trees._label_sum_tables``: the root's
    label sum, then each sequence's first subtree size and top label and the
    rest of the sequence, then each subtree's child sum, splitting the rank by
    the counts of the later parts.  It runs on an explicit stack; nodes come
    in pre-order and are built bottom-up, so any depth works.
    """
    if not 1 <= n <= UNRANK_MAX_N or r < 0:
        raise ValueError(f"unrank serves ranks from 0 on 1..{UNRANK_MAX_N} nodes, got {n}, {r}")
    top, forest = _unrank_tables()
    s, r = _pick(enumerate(forest[n - 1]), r)
    label, kids = [s], [[]]  # by pre-order index; the root is index 0
    todo = [("seq", 0, n - 1, s, r)]  # (kind, parent, size, top label or label sum, rank)
    while todo:
        kind, parent, size, value, r = todo.pop()
        if kind == "tree":
            node = len(label)
            label.append(value)
            kids.append([])
            kids[parent].append(node)
            if size > 1:
                s, r = _pick(((s, c) for s, c in enumerate(forest[size - 1]) if s >= value - 1), r)
                todo.append(("seq", node, size - 1, s, r))
        elif size:
            (first, k), r = _pick(
                (((first, k), t * forest[size - first][value - k])
                 for first in range(1, size + 1) for k, t in enumerate(top[first])
                 if 0 <= value - k < len(forest[size - first])), r)
            here, later = divmod(r, forest[size - first][value - k])
            todo.append(("seq", parent, size - first, value - k, later))
            todo.append(("tree", parent, first, k, here))  # popped first: the left sibling
    built = [None] * len(label)
    for node in range(len(label) - 1, -1, -1):  # children carry larger indices
        built[node] = LabeledPlaneTree(label[node], tuple(built[c] for c in kids[node]))
    return built[0]
