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
memory limits how deep a tree may be.

Trees are immutable; generation streams are restartable, and the shape level
is exposed separately (``iter_shapes`` + ``iter_valid_labelings``) so callers
can consume shapes in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from .errors import InvalidTreeError, ResourceLimitError, TreeParseError

#: Largest n accepted by the exhaustive tree generator unless the caller raises it.
DEFAULT_CEILING = 12

_T = TypeVar("_T")


@dataclass(frozen=True, eq=False, repr=False)
class LabeledPlaneTree:
    """A rooted plane tree with a nonnegative integer label on every node.

    Two trees are equal when their reading orders carry the same labels and
    child counts; this sequence determines the tree.
    """

    label: int
    children: tuple["LabeledPlaneTree", ...] = ()

    def __post_init__(self):
        if self.label < 0:
            raise InvalidTreeError(f"negative label {self.label}")

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


def _fold(tree: LabeledPlaneTree, combine: Callable[[LabeledPlaneTree, list[_T]], _T]) -> _T:
    """Bottom-up fold: ``combine(node, results of its children)`` in reading order."""
    done: list[_T] = []
    for node in postorder_positions(tree):
        first = len(done) - len(node.children)
        kids = done[first:]
        del done[first:]
        done.append(combine(node, kids))
    return done[0]


def subtree_size(tree: LabeledPlaneTree) -> int:
    """Number of nodes in the tree."""
    return len(postorder_positions(tree))


def validate_beta01(tree: LabeledPlaneTree) -> bool:
    """Check the three labeling conditions (leaf 0, root = child sum, internal <= 1 + child sum).

    A single node is treated as a root with empty child sum, forcing label 0;
    the leaf rule would force the same.
    """
    nodes = postorder_positions(tree)
    root = nodes.pop()
    if root.label != sum(c.label for c in root.children):
        return False
    return all(
        node.label <= 1 + sum(c.label for c in node.children) if node.children else node.label == 0
        for node in nodes
    )


def serialize(tree: LabeledPlaneTree) -> str:
    """Canonical text form; ``parse`` inverts it exactly."""

    def text(node: LabeledPlaneTree, kids: list[str]) -> str:
        return f"{node.label}({' '.join(kids)})" if kids else str(node.label)

    return _fold(tree, text)


def parse(text: str) -> LabeledPlaneTree:
    """Parse the canonical text form, reporting the position of the first error.

    >>> parse("3(3(1(0) 1(0)))").label
    3
    """
    pos = 0

    def fail(message: str):
        raise TreeParseError(message, pos)

    def read_label() -> int:
        nonlocal pos
        start = pos
        while pos < len(text) and "0" <= text[pos] <= "9":  # ASCII only
            pos += 1
        if pos == start:
            fail("expected a label")
        digits = text[start:pos]
        if len(digits) > 1 and digits[0] == "0":
            pos = start
            fail("leading zero in label")
        return int(digits)

    open_nodes: list[tuple[int, list[LabeledPlaneTree]]] = []  # label, children read so far
    while True:
        label = read_label()
        if pos < len(text) and text[pos] == "(":
            pos += 1
            open_nodes.append((label, []))
            continue
        node = LabeledPlaneTree(label)
        while open_nodes:  # attach the finished node; close parents until a sibling follows
            open_nodes[-1][1].append(node)
            if pos < len(text) and text[pos] == " ":
                pos += 1
                break
            if pos >= len(text) or text[pos] != ")":
                fail("expected ')' or ' '")
            pos += 1
            label, children = open_nodes.pop()
            node = LabeledPlaneTree(label, tuple(children))
        else:
            break
    if pos != len(text):
        fail("trailing input")
    return node


def normalize_tree(tree: LabeledPlaneTree) -> LabeledPlaneTree:
    """Same shape, every label zero."""
    return _fold(tree, lambda node, kids: LabeledPlaneTree(0, tuple(kids)))


@dataclass(frozen=True)
class ShapeFlags:
    single_path: bool
    all_zero_labels: bool


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
    tree = LabeledPlaneTree(0)
    for _ in range(n - 1):
        tree = LabeledPlaneTree(0, (tree,))
    return tree


def iter_shapes(n: int) -> Iterator[LabeledPlaneTree]:
    """All plane tree shapes on n nodes as all-zero trees, in a fixed recursive order.

    There are Catalan(n-1) of them.
    """
    if n == 1:
        yield LabeledPlaneTree(0)
        return

    def forests(m: int) -> Iterator[tuple[LabeledPlaneTree, ...]]:
        if m == 0:
            yield ()
            return
        for first_size in range(1, m + 1):
            for first in iter_shapes(first_size):
                for rest in forests(m - first_size):
                    yield (first,) + rest

    for kids in forests(n - 1):
        yield LabeledPlaneTree(0, kids)


def iter_valid_labelings(shape: LabeledPlaneTree) -> Iterator[LabeledPlaneTree]:
    """All valid labelings of one shape: labels vary low-to-high, rightmost subtree fastest."""

    def rec(node: LabeledPlaneTree, is_root: bool) -> Iterator[LabeledPlaneTree]:
        if not node.children:
            yield LabeledPlaneTree(0)
            return

        def combos(kids: tuple[LabeledPlaneTree, ...]) -> Iterator[tuple[LabeledPlaneTree, ...]]:
            if not kids:
                yield ()
                return
            for first in rec(kids[0], False):
                for rest in combos(kids[1:]):
                    yield (first,) + rest

        for labeled_kids in combos(node.children):
            child_sum = sum(k.label for k in labeled_kids)
            if is_root:
                yield LabeledPlaneTree(child_sum, labeled_kids)
            else:
                for label in range(child_sum + 2):
                    yield LabeledPlaneTree(label, labeled_kids)

    return rec(shape, True)


def generate_all_beta01(n: int, *, ceiling: int = DEFAULT_CEILING) -> Iterator[LabeledPlaneTree]:
    """Every valid labeled tree on exactly n nodes, each once, shape by shape.

    Stream lengths for n = 1..5 are 1, 1, 3, 12, 56.  n = 0 gives an empty
    stream; n above the ceiling is refused.
    """
    if n < 0:
        raise ResourceLimitError(f"n must be nonnegative, got {n}")
    if n > ceiling:
        raise ResourceLimitError(
            f"tree generation refused for n={n} (ceiling {ceiling}); "
            "raise the ceiling explicitly to proceed"
        )
    for shape in iter_shapes(n):
        yield from iter_valid_labelings(shape)
