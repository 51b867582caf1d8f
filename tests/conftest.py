import random
from itertools import permutations as iter_permutations

import pytest
from hypothesis import strategies as st

from avoid1342 import LabeledPlaneTree, Permutation


@st.composite
def perm_strategy(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_n, max_n))
    vals = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(tuple(vals))


@pytest.fixture(scope="session")
def all_perms_by_n():
    """Every permutation of every length up to 6, as raw tuples."""
    return {n: list(iter_permutations(range(1, n + 1))) for n in range(0, 7)}


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
