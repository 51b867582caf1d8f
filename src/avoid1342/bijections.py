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

Everything here is pure; exhaustive verification over permutation or tree
ranges can be partitioned freely across workers.
"""
from __future__ import annotations

from itertools import accumulate

from .errors import DomainError, ReconstructionError
from .perms import (
    Permutation,
    compose_blocks,
    decompose,
    is_indecomposable,
    left_to_right_minima,
    normalize,
)
from .trees import (
    LabeledPlaneTree,
    _fold,
    classify_shape,
    postorder_positions,
    validate_beta01,
)

# ---------------------------------------------------------------------------
# beats / reaches
# ---------------------------------------------------------------------------

def _beats_successors(vals: tuple[int, ...]) -> list[list[int]]:
    """0-based adjacency: j in succ[i] iff entry i beats entry j.

    Entry i beats entry j (i < j) iff some h < i has p_h < p_j < p_i, which is
    equivalent to min(p_1..p_{i-1}) < p_j < p_i.  Used by ``reaches`` only.
    """
    n = len(vals)
    succ: list[list[int]] = [[] for _ in range(n)]
    prefix_min = n + 1
    for i in range(n):
        if i > 0:
            succ[i] = [j for j in range(i + 1, n) if prefix_min < vals[j] < vals[i]]
        prefix_min = min(prefix_min, vals[i])
    return succ


def _beat_extents(vals: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """For each 0-based position: the last position it beats and the last it reaches.

    Both are -1 where there is none.  Entry i beats exactly the later entries
    with values strictly between min(p_1..p_{i-1}) and p_i, so one
    right-to-left pass over value-indexed arrays answers both: ``last_at[x]``
    is the position of the value x once passed, and ``reach_at[x]`` the
    furthest position that entry beats or reaches, itself included.
    """
    n = len(vals)
    prefix_min = [n + 1, *accumulate(vals[:-1], min)]
    last_at = [-1] * (n + 2)
    reach_at = [-1] * (n + 2)
    last_beaten = [-1] * n
    max_reach = [-1] * n
    for i in range(n - 1, -1, -1):
        lo, v = prefix_min[i] + 1, vals[i]
        if lo < v:
            last_beaten[i] = max(last_at[lo:v])
            max_reach[i] = max(reach_at[lo:v])
        last_at[v] = i
        reach_at[v] = max(i, max_reach[i])
    return last_beaten, max_reach


def _contains_1342(vals: tuple[int, ...], last_beaten: list[int]) -> bool:
    """True iff vals contains 1342, given the first list of ``_beat_extents(vals)``.

    In an occurrence the 3 beats the 2 (the 1 lies before the 3) and the 4
    lies between them, so the first entry after the 3 that exceeds it lies
    before the 2 too.  Hence vals contains 1342 iff some entry's next larger
    entry comes before the last entry it beats.
    """
    n = len(vals)
    next_larger = [n] * n
    stack: list[int] = []
    for j, v in enumerate(vals):
        while stack and vals[stack[-1]] < v:
            next_larger[stack.pop()] = j
        stack.append(j)
    return any(next_larger[i] < last for i, last in enumerate(last_beaten))


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
    """
    n = len(p)
    if not (1 <= i <= n and 1 <= k <= n):
        raise DomainError(f"positions must lie in 1..{n}")
    if k <= i:
        return False
    succ = _beats_successors(p.values)
    frontier = [i - 1]
    seen = set(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in succ[a]:
                if b == k - 1:
                    return True
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# the single-path map f
# ---------------------------------------------------------------------------

def f_forward(p: Permutation) -> LabeledPlaneTree:
    """Map a 1342-avoider starting with 1 to a labeling of the single-path shape.

    Counting from the leaf, node i gets the number of entries at positions
    <= i that exceed at least one later entry; the root repeats the label
    below it.

    >>> str(f_forward(Permutation.from_text("14325")))
    '0(0(2(1(0))))'
    """
    n = len(p)
    if n < 1:
        raise DomainError("the map needs a nonempty permutation")
    if p.values[0] != 1:
        raise DomainError("the single-path map requires first entry 1")
    vals = p.values
    if _contains_1342(vals, _beat_extents(vals)[0]):
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
    tree = None
    for label in labels:  # leaf first, root last
        tree = LabeledPlaneTree(label, (tree,) if tree is not None else ())
    return tree


def f_inverse(tree: LabeledPlaneTree) -> Permutation:
    """Invert ``f_forward`` on a single-path valid tree.

    The largest remaining value sits where the run of strictly positive labels
    ending at the last node starts (at the last node itself when its label is
    0).  Delete that node, decrement the labels after it, restore the root
    condition if the last node went away, and repeat.
    """
    if not classify_shape(tree).single_path:
        raise DomainError("tree is not a single path")
    if not validate_beta01(tree):
        raise DomainError("invalid labeled tree")
    labels = [node.label for node in postorder_positions(tree)]  # leaf -> root
    n = len(labels)
    work = [(label, pos) for pos, label in enumerate(labels, start=1)]
    out = [0] * n
    for value in range(n, 0, -1):
        if work[-1][0] > 0:
            i = len(work) - 1
            while i > 0 and work[i - 1][0] > 0:
                i -= 1
        else:
            i = len(work) - 1
        out[work[i][1] - 1] = value
        deleted_last = i == len(work) - 1
        work = work[:i] + [(label - 1, pos) for label, pos in work[i + 1:]]
        if deleted_last and len(work) >= 2:
            work[-1] = (work[-2][0], work[-1][1])
        elif deleted_last and len(work) == 1:
            work[-1] = (0, work[-1][1])
    return Permutation(tuple(out))


# ---------------------------------------------------------------------------
# the zero-tree map (shapes <-> 132-avoiders ending with n)
# ---------------------------------------------------------------------------

def _position_arrays(tree: LabeledPlaneTree) -> tuple[list[int], list[int], list[list[int]]]:
    """Labels, parents and child lists indexed by reading position 1..n.

    Index 0 is unused; it also stands for "no parent", the root's entry.
    """
    label, parent, kids = [0], [0], [[]]

    def record(node: LabeledPlaneTree, child_positions: list[int]) -> int:
        pos = len(label)
        label.append(node.label)
        parent.append(0)
        kids.append(child_positions)
        for c in child_positions:
            parent[c] = pos
        return pos

    _fold(tree, record)
    return label, parent, kids


def shape_to_perm(tree: LabeledPlaneTree) -> Permutation:
    """Map an all-zero tree to the 132-avoiding permutation ending with n.

    Branches become blocks of consecutive values, leftmost branch largest,
    with n appended for the root.

    >>> str(shape_to_perm(LabeledPlaneTree(0, (LabeledPlaneTree(0), LabeledPlaneTree(0)))))
    '213'
    """
    if not classify_shape(tree).all_zero_labels:
        raise DomainError("tree has a nonzero label")
    return Permutation(tuple(_shape_to_vals(_position_arrays(tree)[2])))


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


def perm_to_shape(p: Permutation) -> LabeledPlaneTree:
    """Invert ``shape_to_perm``: each entry's parent is the next larger entry to its right."""
    vals = p.values
    if not vals:
        raise DomainError("the shape map needs a nonempty permutation")
    if vals[-1] != len(vals):
        raise DomainError("permutation does not end with its largest entry")
    open_nodes: list[tuple[int, LabeledPlaneTree]] = []  # entries still waiting for a parent
    for v in vals:
        first = len(open_nodes)
        while first and open_nodes[first - 1][0] < v:
            first -= 1
        kids = tuple(node for _, node in open_nodes[first:])
        del open_nodes[first:]
        open_nodes.append((v, LabeledPlaneTree(0, kids)))
    shape = open_nodes[0][1]
    # shape_to_perm maps shapes onto the 132-avoiders ending with n, and the
    # pass above inverts it there, so this test is exact
    if shape_to_perm(shape) != p:
        raise DomainError("permutation contains 132")
    return shape


# ---------------------------------------------------------------------------
# the full bijection F
# ---------------------------------------------------------------------------

def F_forward(p: Permutation) -> LabeledPlaneTree:
    """Map an indecomposable 1342-avoider to a valid labeled tree on n nodes.

    Shape: the zero tree of the normalization N(p).  Entries attach to nodes
    by reading position.  Each non-root node's label counts the descendants
    (itself included) whose entry reaches some entry past the node's own
    position; the root's label is the sum of its children's labels.

    >>> str(F_forward(Permutation.from_text("361542")))
    '3(3(1(0) 1(0)))'
    """
    n = len(p)
    if n < 1:
        raise DomainError("the bijection needs a nonempty permutation")
    last_beaten, max_reach = _beat_extents(p.values)
    if _contains_1342(p.values, last_beaten):
        raise DomainError("permutation contains 1342")
    if not is_indecomposable(p):
        raise DomainError("permutation is decomposable")

    pos = 0

    def relabel(node: LabeledPlaneTree, kids: list[tuple[int, LabeledPlaneTree]]):
        nonlocal pos
        pos += 1
        size = 1 + sum(s for s, _ in kids)
        children = tuple(child for _, child in kids)
        if pos < n:
            label = sum(1 for j in range(pos - size, pos) if max_reach[j] >= pos)
        else:
            label = sum(child.label for child in children)
        return size, LabeledPlaneTree(label, children)

    _, result = _fold(perm_to_shape(normalize(p)), relabel)
    if not validate_beta01(result):  # always holds on the stated domain; failure is a bug
        raise ReconstructionError(f"forward map produced an invalid tree for {p}")
    return result


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

    Nodes are reading positions.  Deleting a node or cutting off a block keeps
    the reading order of what is left, so every subtree is carried along as
    the sorted list of its positions and is never walked again.
    """
    if not validate_beta01(tree):
        raise DomainError("invalid labeled tree")
    label, parent, kids = _position_arrays(tree)
    n = len(label) - 1

    base = _shape_to_vals(kids)
    leaves = [pos for pos in range(1, n + 1) if not kids[pos]]
    if leaves != [pos for pos, _ in left_to_right_minima(Permutation(tuple(base))).minima]:
        raise ReconstructionError("leaves do not line up with the left-to-right minima")
    # value placed at each position, 0 while unplaced; a placed node leaves the
    # tree, so among the nodes still in it only the minima carry a value
    out = [0] * (n + 1)
    for pos in leaves:
        out[pos] = base[pos - 1]

    # each item: the top of a subtree, its positions in reading order, and the
    # values (descending, minima included) to place on it
    work = [(n, list(range(1, n + 1)), list(range(n, 0, -1)))]
    while work:
        top, nodes, values = work.pop()
        while True:
            if len(nodes) != len(values):
                raise ReconstructionError("node/value count mismatch")
            if len(nodes) == 1:
                if out[top] and out[top] != values[0]:
                    raise ReconstructionError("pre-assigned minimum clashes with its block")
                out[top] = values[0]
                break

            largest = values[0]
            if any(out[pos] == largest for pos in nodes):
                raise ReconstructionError("largest remaining value is a minimum")

            candidate = 0
            for pos in nodes:
                if pos == top or label[pos] <= 0:
                    continue
                ancestor = parent[pos]
                while ancestor != top and label[ancestor] > 0:
                    ancestor = parent[ancestor]
                if ancestor == top:
                    candidate = pos
                    break

            values = values[1:]
            if candidate:
                out[candidate] = largest
                up = parent[candidate]
                index = kids[up].index(candidate)
                for c in kids[candidate]:
                    parent[c] = up
                kids[up][index: index + 1] = kids[candidate]
                while up != top:
                    label[up] -= 1
                    up = parent[up]
                forest = [top]
                nodes = [pos for pos in nodes if pos != candidate]
            else:
                # no positive path: the largest value sits at the current root
                out[top] = largest
                forest = kids[top]
                for c in forest:
                    parent[c] = 0
                if not forest:
                    break
                nodes = nodes[:-1]

            # Split the leftover content wherever the class forces a cut: a cut
            # after position c is valid iff the running minimum there equals the
            # c-th largest remaining value, and the minima are already placed.
            blocks: list[tuple[int, int]] = []
            start = 0
            running_min: int | None = None
            for c, pos in enumerate(nodes, start=1):
                if out[pos] and (running_min is None or out[pos] < running_min):
                    running_min = out[pos]
                if running_min is None:
                    raise ReconstructionError("reading order does not start at a leaf")
                if running_min == values[c - 1]:
                    blocks.append((start, c))
                    start = c
            if start != len(nodes):
                raise ReconstructionError("cut decomposition did not cover the content")

            if len(blocks) == 1 and len(forest) == 1:
                top = forest[0]
                continue

            for a, b in blocks:
                block = nodes[a:b]
                block_set = set(block)
                tops = [pos for pos in block if parent[pos] not in block_set]
                if len(tops) != 1:
                    raise ReconstructionError(f"block with {len(tops)} components")
                if parent[tops[0]]:
                    kids[parent[tops[0]]].remove(tops[0])
                    parent[tops[0]] = 0
                chunk = values[a:b]
                if any(out[pos] and out[pos] not in chunk for pos in block):
                    raise ReconstructionError("minimum fell outside its value block")
                work.append((tops[0], block, chunk))
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
