"""The immutable value classes of ``perms`` and ``trees``: what they promise callers."""
import copy
import pickle

import pytest

from avoid1342 import ClassSignature, LabeledPlaneTree, Permutation, ShapeFlags, parse

TREE = parse("1(0 1(0))")

#: (instance, its repr, its hash, its fields by keyword)
CASES = [
    (Permutation((3, 1, 2)), "Permutation(values=(3, 1, 2))", hash(((3, 1, 2),)),
     {"values": (3, 1, 2)}),
    (ClassSignature(((1, 3), (2, 1))), "ClassSignature(minima=((1, 3), (2, 1)))",
     hash((((1, 3), (2, 1)),)), {"minima": ((1, 3), (2, 1))}),
    (ShapeFlags(True, False), "ShapeFlags(single_path=True, all_zero_labels=False)",
     hash((True, False)), {"single_path": True, "all_zero_labels": False}),
    (TREE, "parse('1(0 1(0))')", hash(((0, 0), (0, 0), (1, 1), (1, 2))),
     {"label": 1, "children": TREE.children}),
]
IDS = [type(case[0]).__name__ for case in CASES]


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


@pytest.mark.parametrize("value,text,hashed,fields", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trips(value, text, hashed, fields):
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*copies, copy.deepcopy(value), copy.copy(value)]:
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hashed and repr(twin) == text


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
