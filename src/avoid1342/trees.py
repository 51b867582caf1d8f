"""Labeled rooted plane trees and the valid-labeling predicate.

A tree is valid here when every leaf has label 0, the root's label equals the
sum of its children's labels, and every other internal node's label is at most
1 + the sum of its children's labels.  ``generate_all_beta01`` streams every
valid tree on n nodes exactly once.

Canonical text form, bit-exact::

    tree := LABEL | LABEL "(" tree (" " tree)* ")"

with LABEL a decimal nonnegative integer without leading zeros, exactly one
space between siblings, and no other whitespace.

The node reading order used throughout is children first, left to right, then
the node itself (commonly called post-order; some sources name this reading
"preorder" when spelling out the same children-before-node procedure).  Under
it every subtree occupies a contiguous span of positions ending at its top
node, and the root sits at position n.  Every walk over a tree is a loop over
this reading order (``postorder_positions``), never a recursion, so only
memory limits how deep a tree may be; ``serialize`` alone loops in pre-order,
the order of the text, so it writes each token once.  Code that needs more
than one look at a tree takes it once into arrays indexed by reading position
(labels and child lists, the one record of the links; ``_reading_arrays``),
checks it there (``_labels_valid``, the one home of the validity rule) and
builds trees back from arrays with each node made once (``_from_arrays``).
The generators are loops too: they step the pre-order subtree sizes of a
shape, or the labels in reading order, like an odometer, whose fastest digit,
the last internal node before the root, runs as an inner loop that builds
just that node and the root.

Trees are immutable and compare by structure, so the builders here (``parse``,
``_from_arrays``, the generators and ``path_shape``) share one leaf with label
0, ``_LEAF``; ``LabeledPlaneTree(0)`` itself still makes a new node.  The
constructor refuses a label that is not an int >= 0 and a child that is not a
tree; the builders, which pass only those, make their nodes by ``_node``
unchecked.  A tree pickles flat, as its reading-order labels and child counts,
rebuilt by one loop through the constructor, and a copy is the tree itself, so
depth does not matter there either.  Generation streams are restartable, and
the shape level is exposed separately (``iter_shapes`` +
``iter_valid_labelings``) so callers can consume shapes in parallel.  ``count_beta01`` counts the same trees
without building any: it sums tables of subtrees by size and top label and of
subtree sequences by size and label sum (``_label_sum_tables``), in O(n^4)
integer steps, and refuses the same n as the stream through
``errors.refuse_above``, as ``perms`` does: a negative n with ``DomainError``
and n above ``ceiling`` (default ``errors.DEFAULT_CEILING``) with
``ResourceLimitError``.
"""
from __future__ import annotations

import re
from itertools import accumulate
from typing import Iterable, Iterator

from ._frozen import Frozen
from .errors import (DEFAULT_CEILING, DomainError, InvalidTreeError, TreeParseError,
                     refuse_above)


class LabeledPlaneTree(Frozen):
    """A rooted plane tree with a nonnegative ``int`` label on every node.

    ``children`` is stored as a tuple.  Two trees are equal when their
    reading orders carry the same labels and child counts; this sequence
    determines the tree.
    """

    __slots__ = __match_args__ = ("label", "children")
    label: int
    children: tuple[LabeledPlaneTree, ...]

    def __init__(self, label: int, children: Iterable[LabeledPlaneTree] = ()):
        if type(label) is not int:  # a bool too: its repr would not parse
            raise InvalidTreeError(f"label {label!r} is not an int")
        if label < 0:
            raise InvalidTreeError(f"negative label {label}")
        children = tuple(children)
        for child in children:
            if not isinstance(child, LabeledPlaneTree):  # serialize would write text parse refuses
                raise InvalidTreeError(f"child {child!r} is not a tree")
        _set_label(self, label)
        _set_children(self, children)

    def _signature(self) -> list[tuple[int, int]]:
        return [(node.label, len(node.children)) for node in postorder_positions(self)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledPlaneTree):
            return NotImplemented
        return self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash(tuple(self._signature()))

    def __repr__(self) -> str:
        return f"parse({serialize(self)!r})"

    def __str__(self) -> str:
        return serialize(self)

    def __reduce__(self):
        # flat, so that pickling a deep tree needs no recursion
        labels, counts = zip(*self._signature())
        return _from_signature, (labels, counts)


# store past __setattr__, faster than object's
_set_label, _set_children = LabeledPlaneTree.label.__set__, LabeledPlaneTree.children.__set__

#: the one leaf with label 0 that the builders of this package share; nodes
#: are immutable and compare by structure, so no caller can tell it apart
_LEAF = LabeledPlaneTree(0)


def _node(label: int, children: tuple[LabeledPlaneTree, ...] = ()) -> LabeledPlaneTree:
    """A node made past the constructor's checks, for builders that pass only valid fields."""
    node = object.__new__(LabeledPlaneTree)
    _set_label(node, label)
    _set_children(node, children)
    return node


def _from_signature(labels: tuple[int, ...], counts: tuple[int, ...]) -> LabeledPlaneTree:
    """Rebuild a tree from its reading-order labels and child counts.

    Each node is made by the public constructor, which checks its label and
    children: the labels and counts come from outside, as pickled data.
    """
    done: list[LabeledPlaneTree] = []  # finished subtrees still waiting for their parent
    for label, count in zip(labels, counts):
        first = len(done) - count
        if first < 0:
            raise InvalidTreeError("child counts do not describe a tree")
        node = LabeledPlaneTree(label, done[first:])
        del done[first:]
        done.append(node)
    if len(done) != 1:
        raise InvalidTreeError("child counts do not describe a tree")
    return done[0]


def postorder_positions(tree: LabeledPlaneTree) -> list[LabeledPlaneTree]:
    """Nodes in children-first reading order; the node at index i has position i+1.

    The subtree of the node at position i occupies exactly positions
    [i - size + 1, i]; the root has position n.
    """
    out = []
    stack = [tree]
    while stack:  # right-to-left pre-order, reversed below
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    out.reverse()
    return out


def _reading_arrays(tree: LabeledPlaneTree) -> tuple[list[int], list[list[int]]]:
    """Labels and child lists indexed by reading position 1..n; index 0 is unused."""
    label, kids = [0], [[]]
    open_positions: list[int] = []  # finished positions still waiting for their parent
    for pos, node in enumerate(postorder_positions(tree), start=1):
        label.append(node.label)
        first = len(open_positions) - len(node.children)
        kids.append(open_positions[first:])
        del open_positions[first:]
        open_positions.append(pos)
    return label, kids


def _from_arrays(label: list[int], kids: list[list[int]]) -> LabeledPlaneTree:
    """Build the tree of ``_reading_arrays`` form, each node once, children first."""
    built = [None]
    for pos in range(1, len(kids)):
        child_positions = kids[pos]
        if child_positions:
            built.append(_node(label[pos], tuple([built[c] for c in child_positions])))
        else:
            built.append(_node(label[pos]) if label[pos] else _LEAF)
    return built[-1]


def _labels_valid(label: list[int], kids: list[list[int]]) -> bool:
    """``validate_beta01`` on the ``_reading_arrays`` form; the root sits at the last position."""
    root = len(kids) - 1
    for pos in range(1, root):
        child_positions = kids[pos]
        if child_positions:
            if label[pos] > 1 + sum([label[c] for c in child_positions]):
                return False
        elif label[pos]:
            return False
    return label[root] == sum([label[c] for c in kids[root]])


def subtree_size(tree: LabeledPlaneTree) -> int:
    """Number of nodes in the tree."""
    return len(postorder_positions(tree))


def validate_beta01(tree: LabeledPlaneTree) -> bool:
    """Check the three labeling conditions (leaf 0, root = child sum, internal <= 1 + child sum).

    A single node is treated as a root with empty child sum, forcing label 0;
    the leaf rule would force the same.
    """
    label, kids = _reading_arrays(tree)
    return _labels_valid(label, kids)


def serialize(tree: LabeledPlaneTree) -> str:
    """Canonical text form; ``parse`` inverts it exactly.

    One pre-order pass over a stack of the nodes still to write and the
    brackets and spaces between them; the tokens are joined once.
    """
    tokens: list[str] = []
    stack: list = [tree]
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            tokens.append(node)
            continue
        tokens.append(str(node.label))
        if node.children:
            stack.append(")")
            for kid in reversed(node.children):
                stack.append(kid)
                stack.append(" ")
            stack[-1] = "("  # the space before the first child opens the list
    return "".join(tokens)


_LABEL = re.compile("[0-9]+")  # ASCII digits only, unlike str.isdigit and \d


def parse(text: str) -> LabeledPlaneTree:
    """Parse the canonical text form, reporting the position of the first error.

    >>> parse("3(3(1(0) 1(0)))").label
    3
    """
    pos, end = 0, len(text)
    open_nodes: list[tuple[int, list[LabeledPlaneTree]]] = []  # label, children read so far
    while True:
        match = _LABEL.match(text, pos)
        if match is None:
            raise TreeParseError("expected a label", pos)
        digits = match.group()
        if len(digits) > 1 and digits[0] == "0":
            raise TreeParseError("leading zero in label", pos)
        try:
            label = int(digits)
        except ValueError:  # past the interpreter's cap on digits
            raise TreeParseError(f"label of {len(digits)} digits is too long to read", pos)
        pos = match.end()
        if pos < end and text[pos] == "(":
            pos += 1
            open_nodes.append((label, []))
            continue
        node = _node(label) if label else _LEAF
        while open_nodes:  # attach the finished node; close parents until a sibling follows
            open_nodes[-1][1].append(node)
            if pos < end and text[pos] == " ":
                pos += 1
                break
            if pos >= end or text[pos] != ")":
                raise TreeParseError("expected ')' or ' '", pos)
            pos += 1
            label, children = open_nodes.pop()
            node = _node(label, tuple(children))
        else:
            break
    if pos != end:
        raise TreeParseError("trailing input", pos)
    return node


def normalize_tree(tree: LabeledPlaneTree) -> LabeledPlaneTree:
    """Same shape, every label zero."""
    _, kids = _reading_arrays(tree)
    return _from_arrays([0] * len(kids), kids)


class ShapeFlags(Frozen):
    __slots__ = __match_args__ = ("single_path", "all_zero_labels")
    single_path: bool
    all_zero_labels: bool

    def __init__(self, single_path: bool, all_zero_labels: bool):
        object.__setattr__(self, "single_path", single_path)
        object.__setattr__(self, "all_zero_labels", all_zero_labels)

    def _fields(self) -> tuple:
        return (self.single_path, self.all_zero_labels)


def classify_shape(tree: LabeledPlaneTree) -> ShapeFlags:
    """Structural flags: every node has at most one child / every label is zero."""
    nodes = postorder_positions(tree)
    return ShapeFlags(
        single_path=all(len(node.children) <= 1 for node in nodes),
        all_zero_labels=all(node.label == 0 for node in nodes),
    )


def path_shape(n: int) -> LabeledPlaneTree:
    """The all-zero single-path shape on n nodes."""
    if n < 1:
        raise InvalidTreeError("path shape needs at least one node")
    tree = _LEAF
    for _ in range(n - 1):
        tree = _node(0, (tree,))
    return tree


def iter_shapes(n: int) -> Iterator[LabeledPlaneTree]:
    """All plane tree shapes on n nodes as all-zero trees, in a fixed order.

    There are Catalan(n-1) of them.  A shape is given by its subtree sizes
    read in pre-order, and the shapes come in lexicographic order of that
    sequence: first the root over n-1 leaves, last the path.  The sequence is
    stepped like an odometer, so no shape needs a recursion.  A negative n is
    refused with ``DomainError`` at the first ``next()``.
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if n == 0:
        return
    size = [n] + [1] * (n - 1)
    while True:
        yield _shape_from_sizes(size)
        # the last node that can grow: its parent's subtree ends past its own
        last = 0
        ends = [n]  # pre-order end of every subtree still open
        for i in range(1, n):
            while ends[-1] <= i:
                ends.pop()
            if i + size[i] < ends[-1]:
                last = i
            ends.append(i + size[i])
        if not last:
            return
        size[last] += 1
        size[last + 1:] = [1] * (n - 1 - last)


def _shape_from_sizes(size: list[int]) -> LabeledPlaneTree:
    """The all-zero tree whose subtree sizes in pre-order are ``size``."""
    built: list[LabeledPlaneTree] = [None] * len(size)
    for k in range(len(size) - 1, -1, -1):
        if size[k] == 1:
            built[k] = _LEAF
            continue
        children = []
        c, end = k + 1, k + size[k]
        while c < end:
            children.append(built[c])
            c += size[c]
        built[k] = _node(0, tuple(children))
    return built[0]


def iter_valid_labelings(shape: LabeledPlaneTree) -> Iterator[LabeledPlaneTree]:
    """All valid labelings of one shape: labels vary low-to-high, rightmost subtree fastest.

    That is lexicographic order of the labels in reading order, where the
    root's label is its child sum and every other internal node ranges over
    0..1 + (child sum).  The fastest label is that of ``last``, the last
    internal node before the root in reading order; it is a child of the
    root, since any other ancestor would come after it.  An inner loop runs
    it, building just ``last`` over its fixed children and the root over its
    other children.  The labels of the other internal nodes are stepped like
    an odometer, and only the internal nodes from the changed one on are
    built anew, and each step moves its parent's child sum (the parents are
    read off the child lists once per shape).
    """
    _, kids = _reading_arrays(shape)
    n = len(kids) - 1
    internal = [pos for pos in range(1, n + 1) if kids[pos]]  # the root last
    if len(internal) < 2:  # a single node, or the root over leaves: one labeling
        yield _from_arrays([0] * (n + 1), kids)
        return
    *outer, last, _ = internal
    parent = {c: pos for pos in internal for c in kids[pos]}
    slot = kids[n].index(last)
    label = [0] * (n + 1)
    child_sum = [0] * (n + 1)  # the root's omits ``last``, labeled by the inner loop only
    built = [_LEAF] * (n + 1)  # leaves never change
    start = 0
    while True:
        for pos in outer[start:]:
            built[pos] = _node(label[pos], tuple([built[c] for c in kids[pos]]))
        below = tuple([built[c] for c in kids[last]])
        top = [built[c] for c in kids[n]]
        base = child_sum[n]
        for k in range(child_sum[last] + 2):
            top[slot] = _node(k, below)
            yield _node(base + k, tuple(top))
        for start in range(len(outer) - 1, -1, -1):
            pos = outer[start]
            if label[pos] <= child_sum[pos]:
                label[pos] += 1
                child_sum[parent[pos]] += 1
                break
            child_sum[parent[pos]] -= label[pos]
            label[pos] = 0
        else:
            return


def generate_all_beta01(n: int, *, ceiling: int = DEFAULT_CEILING) -> Iterator[LabeledPlaneTree]:
    """Every valid labeled tree on exactly n nodes, each once, shape by shape.

    Stream lengths for n = 1..5 are 1, 1, 3, 12, 56.  n = 0 gives an empty
    stream; n above the ceiling is refused.
    """
    refuse_above(n, ceiling, "tree generation")
    for shape in iter_shapes(n):
        yield from iter_valid_labelings(shape)


def _label_sum_tables(size: int) -> tuple[list[list[int]], list[list[int]]]:
    """Counts of valid non-root subtrees by top label, and of their sequences by label sum.

    ``top[m][k]`` (0 < m <= size, k < m) counts the subtrees on m nodes whose
    top carries label k, and ``forest[m][s]`` (m <= size, s < max(m, 1)) the
    sequences of such subtrees with m nodes in all and label sum s.  A leaf is
    ``top[1] == [1]``, the empty sequence ``forest[0] == [1]``; a larger top
    admits label k over every child sequence of sum at least k - 1, and a
    sequence is a first subtree followed by a sequence.  ``top[0]`` is unused.
    """
    top: list[list[int]] = [[], [1]]
    forest: list[list[int]] = [[1]]
    for m in range(1, size + 1):
        if m > 1:
            tails = list(accumulate(reversed(forest[m - 1])))[::-1]  # tails[s]: child sums >= s
            top.append(tails[:1] + tails)  # labels 0 and 1 admit every child sum
        row = [0] * m
        for first in range(1, m + 1):
            rest = forest[m - first]
            for k, t in enumerate(top[first]):
                for s, g in enumerate(rest, start=k):
                    row[s] += t * g
        forest.append(row)
    return top, forest


def count_beta01(n: int, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Number of valid labeled trees on n nodes, read off ``_label_sum_tables``; no tree is built.

    The root's label is the sum of its children's, so every sequence of n - 1
    nodes under it counts once.  The count equals the length of
    ``generate_all_beta01(n)`` and refuses the same n with the same error.

    >>> [count_beta01(n) for n in range(1, 6)]
    [1, 1, 3, 12, 56]
    """
    refuse_above(n, ceiling, "tree generation")
    if n == 0:
        return 0
    return sum(_label_sum_tables(n - 1)[1][n - 1])
