from itertools import permutations as iter_permutations

import pytest
from hypothesis import given, settings

from avoid1342 import (
    ClassSignature,
    InvalidPermutationError,
    Permutation,
    ResourceLimitError,
    catalan,
    compose_blocks,
    contains,
    count_avoiders,
    count_occurrences,
    decompose,
    is_indecomposable,
    iter_avoiders,
    left_to_right_minima,
    normalize,
    pattern_of,
    same_class,
)
from avoid1342.errors import DomainError

from conftest import perm_strategy
from oracles import (
    oracle_avoiders,
    oracle_contains,
    oracle_count_occurrences,
    oracle_is_indecomposable,
    oracle_minima,
)

P = Permutation.from_text

P1342 = P("1342")
P132 = P("132")


# ---------------------------------------------------------------- construction

def test_rejects_duplicates_and_gaps():
    with pytest.raises(InvalidPermutationError):
        Permutation((1, 1, 2))
    with pytest.raises(InvalidPermutationError):
        Permutation((2, 3))
    with pytest.raises(InvalidPermutationError):
        Permutation((0, 1))


def test_text_roundtrip_both_forms():
    assert P("361542").values == (3, 6, 1, 5, 4, 2)
    assert P("3,6,1,5,4,2").values == (3, 6, 1, 5, 4, 2)
    assert str(P("361542")) == "361542"
    long = Permutation(tuple(range(1, 13)))
    assert str(long) == "1,2,3,4,5,6,7,8,9,10,11,12"
    assert P(str(long)) == long
    assert P("").values == ()


def test_text_rejects_garbage():
    with pytest.raises(InvalidPermutationError):
        P("3a1")
    with pytest.raises(InvalidPermutationError):
        P("1,2,x")


# ---------------------------------------------------------------- containment

def test_contains_examples():
    assert contains(P("361542"), P1342) is False
    assert contains(P("1234567"), P1342) is False
    for q in [P("1342"), P("132"), P("21"), P("1")]:
        assert contains(q, q) is True


def test_contains_empty_host():
    assert contains(Permutation(()), P1342) is False
    with pytest.raises(DomainError):
        contains(P("123"), Permutation(()))


@pytest.mark.parametrize("pattern", ["132", "1342", "1234", "2413"])
def test_contains_matches_subset_scan(pattern, all_perms_by_n):
    q = P(pattern)
    for n in (len(q), len(q) + 1, len(q) + 2):
        for vals in all_perms_by_n[n]:
            assert contains(Permutation(vals), q) == oracle_contains(vals, q.values)


def test_count_occurrences_examples():
    assert count_occurrences(P("132"), P("132")) == 1
    assert count_occurrences(P("12345"), P("1234")) == 5
    assert count_occurrences(P("1432"), P("132")) == 3


def test_count_occurrences_matches_subset_scan(all_perms_by_n):
    for vals in all_perms_by_n[5]:
        p = Permutation(vals)
        assert count_occurrences(p, P132) == oracle_count_occurrences(vals, P132.values)


@given(perm_strategy(min_n=1, max_n=6))
def test_count_zero_iff_avoids(p):
    assert (count_occurrences(p, P1342) == 0) == (not contains(p, P1342))
    assert (count_occurrences(p, P132) == 0) == (not contains(p, P132))


# ---------------------------------------------------------------- minima / class

def test_minima_examples():
    assert left_to_right_minima(P("34125")).minima == ((1, 3), (3, 1))
    assert left_to_right_minima(P("123")).minima == ((1, 1),)
    assert left_to_right_minima(P("321")).minima == ((1, 3), (2, 2), (3, 1))
    assert left_to_right_minima(Permutation(())).minima == ()


def test_minima_match_literal_definition(all_perms_by_n):
    for vals in all_perms_by_n[6]:
        assert left_to_right_minima(Permutation(vals)).minima == oracle_minima(vals)


def test_signature_invariants_enforced():
    with pytest.raises(InvalidPermutationError):
        ClassSignature(((2, 5),))  # must start at position 1
    with pytest.raises(InvalidPermutationError):
        ClassSignature(((1, 2), (2, 3)))  # values must decrease


def test_same_class_examples():
    assert same_class(P("34125"), P("35124")) is True
    assert same_class(P("3142"), P("3412")) is False
    assert same_class(P("34125"), P("34125")) is True
    assert same_class(P("123"), P("1234")) is False


# ---------------------------------------------------------------- decomposition

def test_is_indecomposable_examples():
    assert is_indecomposable(P("21")) is False
    assert is_indecomposable(P("12")) is True
    assert is_indecomposable(P("35124")) is True


def test_is_indecomposable_matches_cut_scan(all_perms_by_n):
    for n in (1, 4, 5, 6):
        for vals in all_perms_by_n[n]:
            assert is_indecomposable(Permutation(vals)) == oracle_is_indecomposable(vals)


def test_decompose_examples():
    assert [str(b) for b in decompose(P("312"))] == ["1", "12"]
    assert [str(b) for b in decompose(P("321"))] == ["1", "1", "1"]
    assert [str(b) for b in decompose(P("123"))] == ["123"]
    assert decompose(Permutation(())) == []


@given(perm_strategy(max_n=7))
def test_decompose_blocks_reassemble(p):
    blocks = decompose(p)
    assert all(is_indecomposable(b) for b in blocks)
    assert compose_blocks(blocks) == p


# ---------------------------------------------------------------- normalization

def test_normalize_examples():
    assert str(normalize(P("32514"))) == "32415"
    assert str(normalize(P("361542"))) == "341256"
    assert str(normalize(P("321"))) == "321"


@given(perm_strategy(max_n=7))
@settings(max_examples=200)
def test_normalize_properties(p):
    n1 = normalize(p)
    assert normalize(n1) == n1
    assert same_class(p, n1) or len(p) == 0
    assert not contains(n1, P132) if len(p) >= 3 else True


def test_exactly_one_avoider_per_class():
    # group all n! permutations by signature: each class holds exactly one
    # 132-avoider, and it is the normalization of every member
    for n in range(1, 8):
        classes = {}
        for vals in iter_permutations(range(1, n + 1)):
            p = Permutation(vals)
            classes.setdefault(left_to_right_minima(p).minima, []).append(p)
        for members in classes.values():
            avoiders = [p for p in members if not contains(p, P132)]
            assert len(avoiders) == 1
            assert all(normalize(p) == avoiders[0] for p in members)


def test_normalize_preserves_indecomposability():
    for n in range(1, 8):
        for vals in iter_permutations(range(1, n + 1)):
            p = Permutation(vals)
            assert is_indecomposable(p) == is_indecomposable(normalize(p))


def test_indecomposable_normalization_ends_with_n():
    for n in range(1, 8):
        for vals in iter_permutations(range(1, n + 1)):
            p = Permutation(vals)
            if is_indecomposable(p):
                assert normalize(p).values[-1] == n


# ---------------------------------------------------------------- enumeration

def test_enumerate_pinned_counts():
    assert count_avoiders(4, P1342) == 23
    assert count_avoiders(3, P1342) == 6
    assert count_avoiders(5, P1342, "indecomposable") == 56


def test_enumerate_against_full_scan(all_perms_by_n):
    from oracles import oracle_avoiders

    for n in range(0, 7):
        expected = [vals for vals in all_perms_by_n[n] if not oracle_contains(vals, P1342.values)]
        got = [p.values for p in iter_avoiders(n, P1342)]
        assert got == sorted(expected)
        assert count_avoiders(n, P1342) == len(expected)


def test_enumerate_streams_lexicographically():
    stream = [p.values for p in iter_avoiders(5, P1342)]
    assert stream == sorted(stream)
    assert len(stream) == len(set(stream)) == 103


def test_first_entry_filter_gives_catalan():
    for n in range(1, 9):
        assert count_avoiders(n, P1342, "first_entry_is_1") == catalan(n - 1)


def test_first_entry_partition_sums_to_total():
    total = count_avoiders(6, P1342)
    parts = [count_avoiders(6, P1342, first_entry=v) for v in range(1, 7)]
    assert sum(parts) == total == 512


def test_enumerate_resource_guard():
    with pytest.raises(ResourceLimitError):
        count_avoiders(13, P1342)
    # explicit ceiling unlocks larger n (not executed far enough to be slow)
    assert count_avoiders(3, P1342, ceiling=3) == 6
    with pytest.raises(ResourceLimitError):
        count_avoiders(4, P1342, ceiling=3)


def test_enumerate_rejects_bad_args():
    with pytest.raises(DomainError):
        count_avoiders(-1, P1342)
    with pytest.raises(DomainError):
        count_avoiders(3, Permutation(()))


def test_enumerate_n_zero():
    assert count_avoiders(0, P1342) == 1
    assert count_avoiders(0, P1342, "indecomposable") == 0
    assert [p.values for p in iter_avoiders(0, P1342)] == [()]


def test_enumerate_rejects_bad_first_entry():
    # out-of-range first entries used to give wrong counts or fail late
    for first in (0, -1, 6, 7):
        with pytest.raises(DomainError):
            count_avoiders(5, P1342, first_entry=first)
        with pytest.raises(DomainError):
            list(iter_avoiders(5, P1342, first_entry=first))
    with pytest.raises(DomainError):
        list(iter_avoiders(3, P132, first_entry=0))
    with pytest.raises(DomainError):
        count_avoiders(0, P1342, first_entry=1)


def test_enumerate_rejects_unknown_selection():
    for n in (0, 1, 4):
        with pytest.raises(DomainError):
            count_avoiders(n, P1342, "odd")
        with pytest.raises(DomainError):
            list(iter_avoiders(n, P1342, "odd"))


def test_first_entry_is_1_excludes_other_first_entries():
    assert count_avoiders(5, P1342, "first_entry_is_1", first_entry=2) == 0
    assert list(iter_avoiders(5, P1342, "first_entry_is_1", first_entry=2)) == []


_ORACLE_SELECTIONS = {
    "all": lambda vals: True,
    "indecomposable": oracle_is_indecomposable,
    "first_entry_is_1": lambda vals: vals[:1] == (1,),
}


@pytest.mark.parametrize("pattern", ["1342", "2413", "1234", "12345", "132", "21"])
def test_enumerate_every_selection_against_full_scan(pattern):
    q = P(pattern)
    for n in range(0, 7):
        avoiders = oracle_avoiders(n, q.values)
        for selection, keep in _ORACLE_SELECTIONS.items():
            for first in [None, *range(1, n + 1)]:
                expected = sorted(
                    vals for vals in avoiders
                    if keep(vals) and (first is None or vals[0] == first)
                )
                got = [p.values for p in iter_avoiders(n, q, selection, first_entry=first)]
                assert got == expected, (n, selection, first)
                assert count_avoiders(n, q, selection, first_entry=first) == len(expected)


def test_pattern_of():
    assert pattern_of((3, 6, 5)).values == (1, 3, 2)
    assert pattern_of(()).values == ()
