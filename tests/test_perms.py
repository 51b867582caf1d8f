import random
import sys
import time
from itertools import permutations as iter_permutations
from math import factorial

import pytest
from hypothesis import given, settings

from avoid1342 import (
    ClassSignature,
    F_inverse,
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
    t_closed,
)
from avoid1342.bijections import _beat_extents, _contains_1342
from avoid1342.errors import DomainError

from conftest import perm_strategy, random_valid_tree
from oracles import (
    oracle_avoiders,
    oracle_contains,
    oracle_count_occurrences,
    oracle_increasing_avoiders,
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


@pytest.mark.parametrize("text", [
    "\u0663\u0661\u0662",                      # Arabic-Indic digits
    "\uff112",                                  # a fullwidth 1
    "1,+2",
    "1_0," + ",".join(str(v) for v in range(1, 10)),
    "1, 2",
    "1,,2",
    ",1",
])
def test_text_accepts_only_ascii_digits(text):
    with pytest.raises(InvalidPermutationError):
        P(text)


@pytest.mark.parametrize("text", ["1," + "2" * 4301, "9" * 4400 + ",1"], ids=["last", "first"])
def test_text_refuses_an_entry_past_the_digit_limit(text):
    # Python refuses int() on a run of more than 4 300 digits by default
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(InvalidPermutationError):
            P(text)
    finally:
        sys.set_int_max_str_digits(limit)


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


_SMALL_PATTERNS = ["".join(map(str, q)) for k in range(1, 5)
                   for q in iter_permutations(range(1, k + 1))]


@pytest.mark.parametrize("pattern", [*_SMALL_PATTERNS, "12345", "13542", "25314"])
def test_contains_matches_subset_scan(pattern, all_perms_by_n):
    q = P(pattern)
    hosts = [vals for n in range(0, 7) for vals in all_perms_by_n[n]]
    if pattern in ("132", "1342", "1234", "2413"):
        hosts += iter_permutations(range(1, 8))
    for vals in hosts:
        assert contains(Permutation(vals), q) == oracle_contains(vals, q.values), vals


def test_contains_on_long_monotone_hosts():
    identity = Permutation(tuple(range(1, 301)))
    reverse = Permutation(tuple(range(300, 0, -1)))
    for pattern in [q for q in _SMALL_PATTERNS if len(q) == 4]:
        q = P(pattern)
        assert contains(identity, q) == (pattern == "1234")
        assert contains(reverse, q) == (pattern == "4321")


def test_contains_on_long_tree_avoiders():
    outcomes = set()
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        p = F_inverse(random_valid_tree(seed, 2000))
        assert not contains(p, P1342)
        assert not contains(normalize(p), P132)
        # a swap may create a 1342, and the beats pass of bijections decides
        # that independently in O(n); adjacent swaps often keep p an avoider
        for draw in range(10):
            vals = list(p.values)
            i = rng.randrange(len(vals) - 1)
            j = i + 1 if draw % 2 else rng.randrange(i + 1, len(vals))
            vals[i], vals[j] = vals[j], vals[i]
            expected = _contains_1342(vals, _beat_extents(vals)[0])
            assert contains(Permutation(tuple(vals)), P1342) == expected, (seed, i, j)
            outcomes.add(expected)
    assert outcomes == {False, True}


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


def test_compose_blocks_is_linear_in_the_number_of_blocks():
    blocks = [Permutation((1,))] * 20_000
    start = time.perf_counter()
    p = compose_blocks(blocks)
    elapsed = time.perf_counter() - start
    assert p == Permutation(tuple(range(20_000, 0, -1)))
    assert elapsed < 0.5, f"composing 20 000 blocks took {elapsed:.2f} s"


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


@pytest.mark.parametrize("pattern", [*_SMALL_PATTERNS, "12345", "13542", "25314"])
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
            # the first entries partition the selection
            parts = [count_avoiders(n, q, selection, first_entry=v) for v in range(1, n + 1)]
            assert sum(parts) == count_avoiders(n, q, selection) or n == 0


def test_enumerate_pattern_of_length_one_or_longer_than_n():
    for n in range(0, 7):
        assert count_avoiders(n, P("1")) == (1 if n == 0 else 0)
        assert list(iter_avoiders(n, P("1"))) == ([Permutation(())] if n == 0 else [])
        longer = Permutation(tuple(range(n + 1, 0, -1)))
        assert count_avoiders(n, longer) == factorial(n)
        assert [p.values for p in iter_avoiders(n, longer)] == list(iter_permutations(range(1, n + 1)))


def test_enumerate_pinned_counts_at_nine():
    # 2413 is Wilf-equivalent to 1342 (Stankova)
    assert count_avoiders(9, P1342) == 91245
    assert count_avoiders(9, P("2413")) == 91245


def test_count_pinned_beyond_the_walk():
    assert count_avoiders(10, P1342) == count_avoiders(10, P("2413")) == 555662
    assert count_avoiders(10, P1342, "indecomposable") == t_closed(9)
    assert count_avoiders(12, P1342) == 22214707
    # one loop over layers: no recursion depth and no size limit in the state
    assert count_avoiders(1500, P("21"), ceiling=1500) == 1


# ---------------------------------------------------------------- reduced occurrence states

@pytest.mark.parametrize("k", range(3, 8))
def test_count_of_increasing_pattern_avoiders_matches_rsk(k):
    identity = Permutation(tuple(range(1, k + 1)))
    for n in range(0, 11):
        assert count_avoiders(n, identity) == oracle_increasing_avoiders(n, k), n


def test_count_avoiding_1234567_at_twelve_is_fast():
    # every occurrence of 12...j but the one with the smallest top is dominated
    start = time.perf_counter()
    count = count_avoiders(12, P("1234567"))
    elapsed = time.perf_counter() - start
    assert count == oracle_increasing_avoiders(12, 7) == 457647966
    assert elapsed < 5.0, elapsed


def test_contains_1243_on_a_long_identity_is_fast():
    # the 1s and the 12s each reduce to one occurrence: the smallest value
    start = time.perf_counter()
    found = contains(Permutation(tuple(range(1, 2001))), P("1243"))
    elapsed = time.perf_counter() - start
    assert not found
    assert elapsed < 2.0, elapsed


_PATTERNS_OF_FIVE = ["".join(map(str, q)) for q in iter_permutations(range(1, 6))]


@pytest.mark.parametrize("pattern", _PATTERNS_OF_FIVE)
def test_every_pattern_of_five_against_full_scan(pattern):
    q = P(pattern)
    for n in range(0, 7):
        avoiders = oracle_avoiders(n, q.values)
        for selection, keep in _ORACLE_SELECTIONS.items():
            expected = [vals for vals in avoiders if keep(vals)]
            assert [p.values for p in iter_avoiders(n, q, selection)] == expected, (n, selection)
            assert count_avoiders(n, q, selection) == len(expected), (n, selection)


def test_walk_backs_up_from_a_dead_prefix():
    # a prefix whose values left include one that completes 21 has no
    # completion; walking on from it would try exponentially many prefixes
    assert [p.values for p in iter_avoiders(60, P("21"), ceiling=60)] == [tuple(range(1, 61))]


def test_pattern_of():
    assert pattern_of((3, 6, 5)).values == (1, 3, 2)
    assert pattern_of(()).values == ()
