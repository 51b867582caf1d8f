"""Seeded inputs, built from the benchmark's own arrays and never by the program.

Random trees are valid labeled plane trees in the (labels, parent) preorder
form of :mod:`reference`.  Shapes are drawn first; labels are then drawn
bottom-up, each internal non-root node uniformly in 0..1 + (child sum), the
root set to its child sum and every leaf to 0.  All loops are iterative, so
any depth can be built.
"""
from __future__ import annotations

import itertools
import random

import reference as ref


def _preorder(parent: list[int]) -> list[int]:
    """Relabel a tree given by parent links (parent[i] < i) into preorder."""
    kids = ref.children_of(parent)
    order: list[int] = []
    stack = [0]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(kids[node]))
    new_index = {old: new for new, old in enumerate(order)}
    return [-1] + [new_index[parent[old]] for old in order[1:]]


def bushy_shape(rng: random.Random, n: int) -> list[int]:
    """A random recursive tree: node i hangs as last child under a uniform earlier node."""
    return _preorder([-1] + [rng.randrange(i) for i in range(1, n)])


def path_shape(n: int) -> list[int]:
    """Every node but the last has exactly one child."""
    return list(range(-1, n - 1))


def random_labels(rng: random.Random, parent: list[int]) -> list[int]:
    n = len(parent)
    labels = [0] * n
    child_sum = [0] * n
    has_child = [False] * n
    for i in range(n - 1, -1, -1):  # children carry larger preorder indices
        if i == 0:
            labels[i] = child_sum[i]
        elif has_child[i]:
            labels[i] = rng.randint(0, child_sum[i] + 1)
        if i:
            child_sum[parent[i]] += labels[i]
            has_child[parent[i]] = True
    return labels


def random_tree(rng: random.Random, n: int, bushy: bool) -> tuple[list[int], list[int]]:
    parent = bushy_shape(rng, n) if bushy else path_shape(n)
    return random_labels(rng, parent), parent


def avoiders_1342(n: int, indecomposable: bool) -> list[tuple[int, ...]]:
    """All 1342-avoiders of length n in lexicographic order, by filtering n! permutations."""
    return [
        p for p in itertools.permutations(range(1, n + 1))
        if not ref.contains_1342(p) and (not indecomposable or ref.is_indecomposable(p))
    ]


def to_program_tree(tree_type, labels: list[int], parent: list[int]):
    """Build the program's tree object bottom-up, without recursion."""
    kids = ref.children_of(parent)
    built: list[object] = [None] * len(labels)
    for i in range(len(labels) - 1, -1, -1):
        built[i] = tree_type(labels[i], tuple(built[c] for c in kids[i]))
    return built[0]
