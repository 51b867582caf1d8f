"""The immutable value classes of ``perms`` and ``trees``: what they promise callers."""
import copy
import pickle

import pytest

from avoid1342 import (ClassSignature, F_forward, F_inverse, InvalidTreeError, LabeledPlaneTree,
                       Permutation, ShapeFlags, generate_all_beta01, parse, postorder_positions,
                       serialize)

TREE = parse("1(0 1(0))")
PATH = parse("0(" * 1999 + "0" + ")" * 1999)  # 2 000 nodes, deeper than the recursion limit

#: (instance, its repr, its hash, its fields by keyword)
CASES = [
    (Permutation((3, 1, 2)), "Permutation(values=(3, 1, 2))", hash(((3, 1, 2),)),
     {"values": (3, 1, 2)}),
    (ClassSignature(((1, 3), (2, 1))), "ClassSignature(minima=((1, 3), (2, 1)))",
     hash((((1, 3), (2, 1)),)), {"minima": ((1, 3), (2, 1))}),
    (ClassSignature([(1, 3), (3, 1)]), "ClassSignature(minima=((1, 3), (3, 1)))",
     hash((((1, 3), (3, 1)),)), {"minima": ((1, 3), (3, 1))}),
    (ShapeFlags(True, False), "ShapeFlags(single_path=True, all_zero_labels=False)",
     hash((True, False)), {"single_path": True, "all_zero_labels": False}),
    (TREE, "parse('1(0 1(0))')", hash(((0, 0), (0, 0), (1, 1), (1, 2))),
     {"label": 1, "children": TREE.children}),
    (PATH, f"parse({serialize(PATH)!r})", hash(((0, 0),) + ((0, 1),) * 1999),
     {"label": 0, "children": PATH.children}),
]
IDS = ["Permutation", "ClassSignature", "ClassSignature-from-list", "ShapeFlags",
       "LabeledPlaneTree", "LabeledPlaneTree-path2000"]


@pytest.mark.parametrize("value,text,hashed,fields", CASES, ids=IDS)
def test_repr_hash_and_keyword_construction(value, text, hashed, fields):
    assert repr(value) == text
    assert hash(value) == hashed
    twin = type(value)(**fields)
    assert twin == value and hash(twin) == hashed and twin is not value
    assert type(value).__match_args__ == tuple(fields)
    assert {name: getattr(value, name) for name in fields} == fields


@pytest.mark.parametrize("value,text,hashed,fields", CASES, ids=IDS)
def test_immutable(value, text, hashed, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert {name: getattr(value, name) for name in fields} == fields


def test_leaves_of_built_trees_are_immutable():
    # the builders share one zero leaf, so none may be changed through any tree
    for n in range(1, 7):
        for tree in generate_all_beta01(n):
            for built in (parse(serialize(tree)), F_forward(F_inverse(tree))):
                assert built == tree
                for leaf in postorder_positions(built):
                    if leaf.children:
                        continue
                    for name in ("label", "children"):
                        with pytest.raises(AttributeError):
                            setattr(leaf, name, None)
                        with pytest.raises(AttributeError):
                            delattr(leaf, name)
                    assert (leaf.label, leaf.children) == (0, ())


@pytest.mark.parametrize("value,text,hashed,fields", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trips(value, text, hashed, fields):
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*copies, copy.deepcopy(value), copy.copy(value)]:
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hashed and repr(twin) == text


@pytest.mark.parametrize("value,text,hashed,fields", CASES, ids=IDS)
def test_copies_are_the_value_itself(value, text, hashed, fields):
    # immutable, so a copy need not rebuild and re-check anything
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    held = copy.deepcopy([value, (value,)])
    assert held[0] is value and held[1][0] is value


def test_flat_tree_pickle_checks_what_it_rebuilds():
    rebuild, (labels, counts) = PATH.__reduce__()
    assert (len(labels), set(labels), counts[:2]) == (2000, {0}, (0, 1))
    assert rebuild(labels, counts) == PATH
    for bad in [((0,), (1,)), ((0, 0), (0, 2)), ((0, 0), (0, 0)), ((), ())]:
        with pytest.raises(InvalidTreeError, match="child counts do not describe a tree"):
            rebuild(*bad)
    with pytest.raises(InvalidTreeError, match="negative label"):
        rebuild((0, -1), (0, 1))


def test_equality_within_the_class_only():
    p = Permutation((2, 1))
    assert p == Permutation((2, 1)) and p != Permutation((1, 2))
    assert p != (2, 1) and p.__eq__((2, 1)) is NotImplemented
    flags = ShapeFlags(True, True)
    assert flags != (True, True) and flags.__eq__((True, True)) is NotImplemented
    signature = ClassSignature(((1, 1),))
    assert signature != ((1, 1),) and signature.__eq__(((1, 1),)) is NotImplemented
    assert TREE != "1(0 1(0))" and TREE.__eq__("1(0 1(0))") is NotImplemented
    assert TREE == parse("1(0 1(0))") and TREE != parse("1(1(0) 0)")


def test_match_by_position():
    match Permutation((2, 1)), TREE, ShapeFlags(False, True):
        case Permutation(values), LabeledPlaneTree(label, children), ShapeFlags(path, zero):
            assert (values, label, len(children), path, zero) == ((2, 1), 1, 2, False, True)
        case _:
            pytest.fail("no match")
