"""Constructive correspondences between 1342-avoiding permutations and labeled trees.

Three maps, each with an explicit inverse:

* ``f_forward`` / ``f_inverse`` — 1342-avoiders starting with 1  <->  valid
  labelings of the single-path shape;
* ``shape_to_perm`` / ``perm_to_shape`` — 132-avoiders ending with n  <->
  all-zero trees (pure shapes);
* ``F_forward`` / ``F_inverse`` — indecomposable 1342-avoiders  <->  all valid
  labeled trees on n nodes.  ``forest_forward`` extends this to every
  1342-avoider via the block decomposition, one tree per block.

The labels of ``F_forward`` are driven by two relations on entries: ``beats``
(an earlier smaller entry completes a 132-pattern) and ``reaches`` (its
transitive closure along increasing positions).  Entries are attached to tree
nodes by the children-first reading order of :mod:`avoid1342.trees`.

``F`` and the shape map work on arrays indexed by reading position (labels and
child lists) from start to finish.  ``F_forward`` makes one right-to-left pass
for the last entry each entry reaches, which also refuses 1342: p contains it
iff some entry's next larger entry g lies before the last entry it reaches (if
the link a -> b of the chain of beats straddles g, the minimum before a, a, g,
b is one).  It reads indecomposability off N(p), which has the left-to-right
minima of p and so its skew cuts, takes the child lists of N(p) from one
next-larger-to-the-right pass (exact, as N(p) avoids 132; only
``perm_to_shape``, whose permutation comes from outside, checks them), counts
the labels up the parent path of each entry, checks validity on the arrays and
builds each internal node once, sharing the zero leaf of ``trees``.
``F_inverse`` walks its tree once into the same arrays, and the validity
check, the shape's values and the minima are all read off them.  A block of
its greedy is a list of positions with its top last and the largest of its run
of values, and each value finds its node by one descent from the top; one loop
over a split block drops the links into earlier blocks, counts its components
as nodes less links and checks that its minima lie in its values.

Both directions of ``f`` rest on ``perms._normalize_values``, the 132 fill of
a run of minima.  A path labeling gives the suffix minima of p, and with
p_1 = 1 the rest of p avoids 231, so its reverse is the fill of those minima:
``f_inverse`` is one walk and one fill, and ``f_forward`` tests for 1342 by
checking that the reversed rest of p equals its own fill.  Both are O(n).
"""
from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from .errors import DomainError, ReconstructionError
from .perms import Permutation, _normalize_values, compose_blocks, decompose
from .trees import _LEAF, LabeledPlaneTree, _from_arrays, _labels_valid, _node, _reading_arrays

# ---------------------------------------------------------------------------
# beats / reaches
# ---------------------------------------------------------------------------

def _reach_extents(vals: tuple[int, ...]) -> list[int]:
    """For each 0-based position: the last position it reaches, -1 where there is none.

    Entry i beats exactly the later entries with values strictly between
    min(p_1..p_{i-1}) and p_i, and reaches those and what they reach, so one
    right-to-left pass answers it: ``reach_at[x]`` is the furthest position
    the entry of value x, once passed, reaches, itself included.

    The same pass refuses 1342 with ``DomainError``: vals contains 1342 iff
    some entry's next larger entry g comes before the last entry it reaches.
    If so, the link a -> b of its chain of beats that straddles g gives one:
    a lies below the entry and so below g, and the minimum before a, a, g and
    b form a 1342.  Conversely, in an occurrence the 3 beats (so reaches) the
    2 and the 4 lies between them.
    """
    n = len(vals)
    prefix_min = [n + 1, *accumulate(vals[:-1], min)]
    reach_at = [-1] * (n + 2)
    max_reach = [-1] * n
    larger: list[int] = []  # positions of the left-to-right maxima passed, leftmost on top
    for i in range(n - 1, -1, -1):
        lo, v = prefix_min[i] + 1, vals[i]
        while larger and vals[larger[-1]] < v:
            larger.pop()
        reach_at[v] = i
        if lo < v and (last := max(reach_at[lo:v])) > i:  # else it beats no later entry
            if larger and larger[-1] < last:
                raise DomainError("permutation contains 1342")
            max_reach[i] = reach_at[v] = last
        larger.append(i)
    return max_reach


def beats(p: Permutation, i: int, j: int) -> bool:
    """True iff the entry at 1-based position i beats the one at position j.

    Requires i < j to hold for a beat; i >= j simply returns False.
    """
    n = len(p)
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"positions must lie in 1..{n}")
    if i >= j:
        return False
    vals = p.values
    prefix_min = min(vals[: i - 1], default=n + 1)
    return prefix_min < vals[j - 1] < vals[i - 1]


def reaches(p: Permutation, i: int, k: int) -> bool:
    """True iff (i, k) lies in the transitive closure of beats (1-based positions).

    Every beaten entry is also reached; positions must strictly increase along
    the chain, so k <= i is always False.

    An entry a beats exactly the later values strictly between m_a, the
    minimum before a, and p_a.  A reached entry's value lies inside that
    range of the entry that beat it and its own minimum is no larger, so the
    values beaten by i or by anything it reaches always form one range
    (m, p_i), with m the minimum before the last entry reached.  One forward
    scan from i to k decides it.
    """
    n = len(p)
    if not (1 <= i <= n and 1 <= k <= n):
        raise DomainError(f"positions must lie in 1..{n}")
    vals = p.values
    prefix_min = min(vals[: i - 1], default=n + 1)
    bottom, top = prefix_min, vals[i - 1]
    for j in range(i, k):  # vals[j] sits at position j + 1
        prefix_min = min(prefix_min, vals[j - 1])
        if bottom < vals[j] < top:
            if j == k - 1:
                return True
            bottom = prefix_min
    return False


# ---------------------------------------------------------------------------
# the single-path map f
# ---------------------------------------------------------------------------

def f_forward(p: Permutation) -> LabeledPlaneTree:
    """Map a 1342-avoider starting with 1 to a labeling of the single-path shape.

    Counting from the leaf, node j < n gets j + 1 - min(p_{j+1..n}), the
    number of entries at positions <= j that exceed a later entry; the root
    repeats the label below it.  With p_1 = 1, p avoids 1342 exactly when
    p_2..p_n avoids 231, that is when its reverse, shifted down by 1, avoids
    132 and so equals the 132 fill of its own running minima.

    >>> str(f_forward(Permutation.from_text("14325")))
    '0(0(2(1(0))))'
    """
    n = len(p)
    if n < 1:
        raise DomainError("the map needs a nonempty permutation")
    if p.values[0] != 1:
        raise DomainError("the single-path map requires first entry 1")
    vals = p.values
    mirror = [v - 1 for v in reversed(vals[1:])]
    if _normalize_values(mirror) != mirror:
        raise DomainError("permutation contains 1342")
    # every value below the minimum m of vals[i:] lies in vals[:i], so i - (m - 1)
    # entries of vals[:i] exceed m
    labels = []
    suffix_min = n + 1
    for i in range(n - 1, 0, -1):
        suffix_min = min(suffix_min, vals[i])
        labels.append(i - suffix_min + 1)
    labels.reverse()
    labels.append(labels[-1] if labels else 0)
    tree = _LEAF  # the leaf's label, labels[0], is 1 - min(p_2..p_n) + 1 = 0
    for label in labels[1:]:  # root last
        tree = _node(label, (tree,))
    return tree


def f_inverse(tree: LabeledPlaneTree) -> Permutation:
    """Invert ``f_forward`` on a single-path valid tree.

    The labels give the suffix minima min(p_{j+1..n}) = j + 1 - label, and
    p_2..p_n avoids 231, so its reverse is the 132 fill of those minima read
    root first.  One walk of the tree, one fill.

    >>> from avoid1342.trees import parse
    >>> str(f_inverse(parse("0(0(2(1(0))))")))
    '14325'
    """
    label, kids = _reading_arrays(tree)
    if any(len(child_positions) > 1 for child_positions in kids):
        raise DomainError("tree is not a single path")
    if not _labels_valid(label, kids):
        raise DomainError("invalid labeled tree")
    n = len(label) - 1
    # min(p_{j+1..n}) - 1 = j - label[j], read root first
    rest = _normalize_values([j - label[j] for j in range(n - 1, 0, -1)])
    return Permutation((1, *[v + 1 for v in reversed(rest)]))


# ---------------------------------------------------------------------------
# the zero-tree map (shapes <-> 132-avoiders ending with n)
# ---------------------------------------------------------------------------

def shape_to_perm(tree: LabeledPlaneTree) -> Permutation:
    """Map an all-zero tree to the 132-avoiding permutation ending with n.

    Branches become blocks of consecutive values, leftmost branch largest,
    with n appended for the root.

    >>> str(shape_to_perm(LabeledPlaneTree(0, (LabeledPlaneTree(0), LabeledPlaneTree(0)))))
    '213'
    """
    label, kids = _reading_arrays(tree)
    if any(label):
        raise DomainError("tree has a nonzero label")
    return Permutation(tuple(_shape_to_vals(kids)))


def _shape_to_vals(kids: list[list[int]]) -> list[int]:
    """Values of ``shape_to_perm`` in reading order, from the child lists.

    A node's ancestors and the branches left of its own come first in
    pre-order and hold the larger values, so its value is n minus its
    pre-order index: one top-down pass.
    """
    n = len(kids) - 1
    vals = [0] * n
    stack = [n]
    for value in range(n, 0, -1):
        pos = stack.pop()
        vals[pos - 1] = value
        stack.extend(reversed(kids[pos]))
    return vals


def _shape_kids(vals: Sequence[int]) -> list[list[int]]:
    """Child lists by reading position (index 0 unused) of the shape of ``vals``.

    Each entry's parent is the next larger entry to its right, found in one
    pass over a stack of the entries still waiting for one.  It inverts
    ``_shape_to_vals`` on the 132-avoiders ending with n, and values that may
    contain 132 are checked by mapping the lists back.
    """
    kids: list[list[int]] = [[]]
    waiting: list[int] = []  # positions, their values decreasing towards the top
    for pos, v in enumerate(vals, start=1):
        first = len(waiting)
        while first and vals[waiting[first - 1] - 1] < v:
            first -= 1
        kids.append(waiting[first:])
        del waiting[first:]
        waiting.append(pos)
    if len(waiting) != 1:
        raise DomainError("permutation does not end with its largest entry")
    return kids


def perm_to_shape(p: Permutation) -> LabeledPlaneTree:
    """Invert ``shape_to_perm``: each entry's parent is the next larger entry to its right.

    The child lists must map back to p, or p contains 132.

    >>> str(perm_to_shape(Permutation.from_text("341256")))
    '0(0(0(0) 0(0)))'
    """
    if not p.values:
        raise DomainError("the shape map needs a nonempty permutation")
    kids = _shape_kids(p.values)
    if _shape_to_vals(kids) != list(p.values):
        raise DomainError("permutation contains 132")
    return _from_arrays([0] * len(kids), kids)


# ---------------------------------------------------------------------------
# the full bijection F
# ---------------------------------------------------------------------------

def F_forward(p: Permutation) -> LabeledPlaneTree:
    """Map an indecomposable 1342-avoider to a valid labeled tree on n nodes.

    Shape: the zero tree of the normalization N(p).  Entries attach to nodes
    by reading position.  Each non-root node's label counts the descendants
    (itself included) whose entry reaches some entry past the node's own
    position; the root's label is the sum of its children's labels.

    Everything runs on arrays by reading position.  The pass for the last
    entry each entry reaches refuses 1342.  A skew cut depends only on the
    left-to-right minima, which p and N(p) share, and the 132-avoider N(p) is
    indecomposable iff it ends with n, checked after the 1342 test.  The child
    lists of N(p) come from one next-larger-to-the-right pass, exact on a
    132-avoider.  An entry counts towards its node and each ancestor up to the
    last position it reaches, and ancestors lie further right, so one
    right-to-left loop, which fills in the children's parent as it meets each
    node, walks up from each entry while the node lies within its reach: one
    step per unit of label.  The labels are checked for validity on the
    arrays, and the tree is built once at the end.

    >>> str(F_forward(Permutation.from_text("361542")))
    '3(3(1(0) 1(0)))'
    """
    vals = p.values
    n = len(vals)
    if n < 1:
        raise DomainError("the bijection needs a nonempty permutation")
    max_reach = _reach_extents(vals)  # refuses 1342
    shape_vals = _normalize_values(vals)
    if shape_vals[-1] != n:
        raise DomainError("permutation is decomposable")

    kids = _shape_kids(shape_vals)
    parent = [0] * (n + 1)
    label = [0] * (n + 1)
    for pos in range(n, 0, -1):
        for c in kids[pos]:
            parent[c] = pos
        node, last = pos, max_reach[pos - 1]  # 0-based, so nodes up to position last
        while node <= last:
            label[node] += 1
            node = parent[node]
    label[n] = sum([label[c] for c in kids[n]])
    if not _labels_valid(label, kids):  # always holds on the stated domain; failure is a bug
        raise ReconstructionError(f"forward map produced an invalid tree for {p}")
    return _from_arrays(label, kids)


def F_inverse(tree: LabeledPlaneTree) -> Permutation:
    """Recover the unique indecomposable 1342-avoider mapping to ``tree``.

    The zero shape pins the left-to-right minima (they live on the leaves), and
    the remaining values are placed largest-first: each goes to the leftmost
    node whose own label and all labels strictly between it and the current
    root are positive, or to the current root when no such node exists.  A
    placed node is deleted (children promoted in place), the labels of its
    remaining ancestors drop by one, and whenever the leftover content splits
    into blocks -- detectable from the minima alone -- each block continues as
    an independent subtree with its own run of consecutive values.

    Nodes are reading positions.  One walk of the tree gives its labels and
    child lists, the only record of its links; validity, the shape's values
    and the minima are read off those arrays.  Deleting a node or cutting off
    a block keeps the reading order of what is left, so a block is the sorted
    list of its positions, with its top last, and the largest of its values.
    The leftmost node of the rule is found by one descent from the top, each
    step taking the first child with a positive label, and the labels drop
    along the same path; a placed node's children take its place in its
    parent's list.  At a split each block drops the children before its first
    position, which lie in earlier blocks, and is one component exactly when
    it keeps one link fewer than it has nodes.

    >>> from avoid1342.trees import parse
    >>> str(F_inverse(parse("3(3(1(0) 1(0)))")))
    '361542'
    """
    label, kids = _reading_arrays(tree)
    if not _labels_valid(label, kids):
        raise DomainError("invalid labeled tree")
    n = len(label) - 1

    # value placed at each position, 0 while unplaced; a placed node leaves the
    # tree, so among the nodes still in it only the minima carry a value
    out = [0] * (n + 1)
    is_minimum = [False] * (n + 1)  # by value
    low = n + 1
    for pos, v in enumerate(_shape_to_vals(kids), start=1):
        if (v < low) == bool(kids[pos]):
            raise ReconstructionError("leaves do not line up with the left-to-right minima")
        if v < low:
            low = out[pos] = v
            is_minimum[v] = True

    # each item: the positions of a subtree in reading order, its top last, and
    # the largest of the consecutive values to place on them
    work = [(list(range(1, n + 1)), n)]
    while work:
        nodes, largest = work.pop()
        while True:
            top = nodes[-1]
            if len(nodes) == 1:
                if out[top] and out[top] != largest:
                    raise ReconstructionError("pre-assigned minimum clashes with its block")
                out[top] = largest
                break
            if is_minimum[largest]:
                raise ReconstructionError("largest remaining value is a minimum")

            # the leftmost node with positive labels up to the top: descend from
            # the top, each step taking the first child with a positive label
            # and lowering it (the last one reached leaves the tree anyway)
            up, candidate = 0, top
            while True:
                for c in kids[candidate]:
                    if label[c] > 0:
                        label[c] -= 1
                        up, candidate = candidate, c
                        break
                else:
                    break
            out[candidate] = largest
            largest -= 1
            if candidate != top:
                index = kids[up].index(candidate)
                kids[up][index: index + 1] = kids[candidate]
                nodes.remove(candidate)
            else:  # no positive path: the largest value sits at the current root
                nodes.pop()

            # Split the leftover content wherever the class forces a cut: a cut
            # after the c-th node is valid iff the running minimum there equals
            # the c-th largest remaining value, largest + 1 - c.  The minima are
            # placed and fall along the reading order, so the running minimum
            # only moves at a minimum, and at most one cut fits before the next:
            # the one a minimum fixes, if it falls between it and the next.
            if not out[nodes[0]]:
                raise ReconstructionError("reading order does not start at a leaf")
            cuts, start, cut, first = [], 0, -1, largest + 1  # no minimum passed yet
            for c, pos in enumerate(nodes, start=1):
                if out[pos]:
                    if start <= cut < c:
                        cuts.append(cut)
                    start, cut = c, first - out[pos]
            if start <= cut <= len(nodes):
                cuts.append(cut)
            if cuts[-1:] != [len(nodes)]:
                raise ReconstructionError("cut decomposition did not cover the content")

            if len(cuts) == 1 and (candidate != top or len(kids[top]) == 1):
                continue

            start = 0
            for end in cuts:
                block = nodes[start:end]
                high, low, head = largest - start, largest + 1 - end, block[0]
                # children come before their parent, so a child before the head lies
                # in an earlier block; each link left joins two nodes of this block.
                # A placed value in the block is a minimum.
                components, strays = len(block), False
                for pos in block:
                    if kids[pos] and kids[pos][0] < head:
                        kids[pos] = [c for c in kids[pos] if c >= head]
                    components -= len(kids[pos])
                    if out[pos] and not low <= out[pos] <= high:
                        strays = True
                if components != 1:
                    raise ReconstructionError(f"block with {components} components")
                if strays:
                    raise ReconstructionError("minimum fell outside its value block")
                work.append((block, high))
                start = end
            break

    return Permutation(tuple(out[1:]))


# ---------------------------------------------------------------------------
# forests: all 1342-avoiders
# ---------------------------------------------------------------------------

def forest_forward(p: Permutation) -> list[LabeledPlaneTree]:
    """Map any 1342-avoider to the list of trees of its indecomposable blocks.

    >>> [str(t) for t in forest_forward(Permutation.from_text("312"))]
    ['0', '0(0)']
    """
    return [F_forward(block) for block in decompose(p)]


def forest_inverse(trees: list[LabeledPlaneTree]) -> Permutation:
    """Reassemble a 1342-avoider from per-block trees (descending value offsets)."""
    return compose_blocks([F_inverse(t) for t in trees])
