import random
import sys
import time
from itertools import permutations

import pytest
from hypothesis import example, given, settings

from avoid1342 import (
    DomainError,
    F_forward,
    F_inverse,
    Permutation,
    beats,
    catalan,
    classify_shape,
    contains,
    decompose,
    f_forward,
    f_inverse,
    forest_forward,
    forest_inverse,
    generate_all_beta01,
    is_indecomposable,
    iter_avoiders,
    iter_shapes,
    iter_valid_labelings,
    normalize_tree,
    parse,
    path_shape,
    perm_to_shape,
    reaches,
    serialize,
    shape_to_perm,
    validate_beta01,
)

from avoid1342.bijections import _beat_extents
from conftest import (
    extents_refuse_1342,
    perm_strategy,
    random_caterpillar_tree,
    random_uniform_tree,
    random_valid_tree,
)
from oracles import (
    oracle_beats_matrix,
    oracle_contains,
    oracle_is_indecomposable,
    oracle_reaches_matrix,
)

P = Permutation.from_text
P1342 = P("1342")


def indecomposable_avoiders(n):
    return iter_avoiders(n, P1342, "indecomposable")


# ---------------------------------------------------------------- beats / reaches

def test_beats_in_361542():
    p = P("361542")
    # entry 6 sits at position 2, 5 at 4, 4 at 5, 2 at 6
    assert beats(p, 2, 4) is True    # 6 beats 5
    assert beats(p, 2, 5) is True    # 6 beats 4
    assert beats(p, 2, 6) is False   # 6 does not beat 2 ...
    assert reaches(p, 2, 6) is True  # ... but reaches it via 5
    assert beats(p, 4, 5) is True    # 5 beats 4
    assert beats(p, 4, 6) is True    # 5 beats 2
    assert beats(p, 5, 6) is True    # 4 beats 2


def test_beats_needs_increasing_positions():
    p = P("361542")
    assert beats(p, 4, 2) is False
    assert beats(p, 2, 2) is False
    assert reaches(p, 6, 2) is False
    assert reaches(p, 3, 3) is False
    with pytest.raises(DomainError):
        beats(p, 0, 2)
    with pytest.raises(DomainError):
        reaches(p, 1, 7)


def test_monotone_has_no_beats():
    p = P("123456")
    assert not any(beats(p, i, j) for i in range(1, 7) for j in range(1, 7))


def test_first_entry_beats_and_reaches_nothing():
    p = P("361542")
    assert not any(beats(p, 1, j) for j in range(1, 7))
    assert not any(reaches(p, 1, j) for j in range(1, 7))


def test_every_beaten_entry_is_reached():
    p = P("361542")
    for i in range(1, 7):
        for j in range(1, 7):
            if beats(p, i, j):
                assert reaches(p, i, j)


@given(perm_strategy(min_n=1, max_n=10))
@settings(max_examples=150)
def test_reaches_is_transitive_closure_of_beats(p):
    closure = oracle_reaches_matrix(p.values)
    n = len(p)
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            assert reaches(p, i, k) == closure[i - 1][k - 1]


def test_reaches_on_a_long_avoider():
    # the last position reached from i is the one _beat_extents reports
    n = 2000
    p = F_inverse(random_valid_tree(31, n))
    _, max_reach = _beat_extents(p.values)
    rng = random.Random(31)
    starts = [i for i in range(1, n + 1) if max_reach[i - 1] >= 0]
    assert len(starts) > 100
    for i in rng.sample(starts, 12):
        last = max_reach[i - 1] + 1
        assert reaches(p, i, last)
        later = range(last + 1, n + 1)
        for k in {*rng.sample(later, min(len(later), 25)), *later[:3], *later[-1:]}:
            assert not reaches(p, i, k), (i, k)


# ---------------------------------------------------------------- the path map f

def test_f_forward_examples():
    assert serialize(f_forward(P("14325"))) == "0(0(2(1(0))))"
    assert serialize(f_forward(P("1"))) == "0"
    assert serialize(f_forward(P("12"))) == "0(0)"


def test_f_forward_preconditions():
    with pytest.raises(DomainError):
        f_forward(P("213"))  # does not start with 1
    with pytest.raises(DomainError):
        f_forward(P("1342"))  # contains the pattern
    with pytest.raises(DomainError):
        f_forward(Permutation(()))


def test_f_inverse_examples():
    assert str(f_inverse(parse("0(0(2(1(0))))"))) == "14325"
    assert str(f_inverse(parse("0"))) == "1"


def test_f_inverse_rejects_bad_trees():
    with pytest.raises(DomainError):
        f_inverse(parse("0(0 0)"))  # not a path
    with pytest.raises(DomainError):
        f_inverse(parse("1(0)"))    # invalid labeling


def test_f_roundtrip_exhaustive():
    for n in range(1, 11):
        for p in iter_avoiders(n, P1342, "first_entry_is_1"):
            tree = f_forward(p)
            flags = classify_shape(tree)
            assert flags.single_path and validate_beta01(tree)
            assert f_inverse(tree) == p


def test_f_inverse_covers_all_path_labelings():
    for n in range(1, 11):
        for tree in iter_valid_labelings(path_shape(n)):
            p = f_inverse(tree)
            assert p.values[0] == 1
            assert serialize(f_forward(p)) == serialize(tree)


def test_f_inverse_images_are_distinct_1342_avoiders_starting_with_1():
    # checked by the subset-scan oracle, which shares nothing with the 132 fill
    for n in range(1, 11):
        images = set()
        for tree in iter_valid_labelings(path_shape(n)):
            vals = f_inverse(tree).values
            assert vals[0] == 1
            assert not oracle_contains(vals, P1342.values), vals
            images.add(vals)
        assert len(images) == catalan(n - 1)


def test_f_roundtrip_on_a_long_path_is_linear():
    n = 4000
    p = Permutation((1,) + tuple(range(n, 1, -1)))
    start = time.perf_counter()
    back = f_inverse(f_forward(p))
    elapsed = time.perf_counter() - start
    assert back == p
    assert elapsed < 0.5, elapsed


# ---------------------------------------------------------------- the shape map

def test_shape_to_perm_examples():
    assert str(shape_to_perm(parse("0(0(0(0) 0(0)))"))) == "341256"
    assert str(shape_to_perm(parse("0"))) == "1"
    assert str(shape_to_perm(parse("0(0 0)"))) == "213"


def test_shape_to_perm_rejects_labels():
    with pytest.raises(DomainError):
        shape_to_perm(parse("1(1(0))"))


def test_perm_to_shape_examples():
    assert serialize(perm_to_shape(P("341256"))) == "0(0(0(0) 0(0)))"
    assert serialize(perm_to_shape(P("1"))) == "0"


def test_perm_to_shape_preconditions():
    with pytest.raises(DomainError):
        perm_to_shape(P("132"))   # contains 132
    with pytest.raises(DomainError):
        perm_to_shape(P("321"))   # does not end with n


def test_shape_roundtrip_exhaustive():
    for n in range(1, 8):
        for shape in iter_shapes(n):
            p = shape_to_perm(shape)
            assert p.values[-1] == n
            assert not contains(p, P("132"))
            assert perm_to_shape(p) == shape


# ---------------------------------------------------------------- the bijection F

def test_F_forward_worked_example():
    assert serialize(F_forward(P("361542"))) == "3(3(1(0) 1(0)))"
    assert serialize(F_forward(P("1"))) == "0"
    assert serialize(F_forward(P("132"))) == "1(1(0))"


def test_F_forward_preconditions():
    with pytest.raises(DomainError):
        F_forward(P("1342"))
    with pytest.raises(DomainError):
        F_forward(P("312"))  # decomposable
    with pytest.raises(DomainError):
        F_forward(Permutation(()))


def test_F_forward_refuses_1342_first_then_decomposable(all_perms_by_n):
    # indecomposability is read off N(p), after the 1342 check, as one message each
    for n in range(1, 8):
        for vals in all_perms_by_n[n]:
            if oracle_contains(vals, P1342.values):
                expected = "permutation contains 1342"
            elif not oracle_is_indecomposable(vals):
                expected = "permutation is decomposable"
            else:
                assert validate_beta01(F_forward(Permutation(vals)))
                continue
            with pytest.raises(DomainError) as refused:
                F_forward(Permutation(vals))
            assert type(refused.value) is DomainError and refused.value.args == (expected,), vals


@given(perm_strategy(min_n=1, max_n=40))
@example(Permutation(tuple(range(1, 41))))
@example(Permutation(tuple(range(40, 0, -1))))
@example(Permutation((40, *range(1, 40))))
@settings(max_examples=300)
def test_F_forward_refuses_1342_first_then_decomposable_on_long_perms(p):
    # the 1342 test runs inside the extents pass; the exhaustive test above stops at n = 7
    if contains(p, P1342):
        expected = "permutation contains 1342"
    elif len(decompose(p)) > 1:
        expected = "permutation is decomposable"
    else:
        assert F_inverse(F_forward(p)) == p
        return
    with pytest.raises(DomainError) as refused:
        F_forward(p)
    assert type(refused.value) is DomainError and refused.value.args == (expected,), p


def test_F_inverse_examples():
    assert str(F_inverse(parse("3(3(1(0) 1(0)))"))) == "361542"
    assert str(F_inverse(parse("0"))) == "1"
    assert str(F_inverse(parse("1(1(0))"))) == "132"


def test_F_inverse_rejects_invalid_tree():
    with pytest.raises(DomainError):
        F_inverse(parse("1(0)"))


def test_F_bijection_exhaustive():
    for n in range(1, 9):
        image = set()
        for p in indecomposable_avoiders(n):
            tree = F_forward(p)
            assert validate_beta01(tree)
            text = serialize(tree)
            assert text not in image, f"collision at {text}"
            image.add(text)
            assert F_inverse(tree) == p
        expected = {serialize(t) for t in generate_all_beta01(n)}
        assert image == expected


def test_F_sends_132_avoiders_to_zero_trees():
    for n in range(1, 8):
        for p in indecomposable_avoiders(n):
            if not contains(p, P("132")):
                tree = F_forward(p)
                assert classify_shape(tree).all_zero_labels
                assert normalize_tree(tree) == tree


def test_F_sends_first_entry_1_to_paths_and_agrees_with_f():
    # empirical resolution of the open question: on permutations starting with
    # 1 the two maps agree label by label, not merely in shape
    for n in range(1, 8):
        for p in iter_avoiders(n, P1342, "first_entry_is_1"):
            tree = F_forward(p)
            assert classify_shape(tree).single_path
            assert tree == f_forward(p)


def test_F_forward_34152_intermediate_split_case():
    # this input forces the reconstruction to split off a finished branch
    # midway rather than only at a root placement
    p = P("34152")
    tree = F_forward(p)
    assert serialize(tree) == "1(0(0) 1(0))"
    assert F_inverse(tree) == p


def test_F_inverse_deep_zero_path_is_identity():
    n = 1100
    assert n > sys.getrecursionlimit()
    assert F_inverse(path_shape(n)) == Permutation(tuple(range(1, n + 1)))


def test_F_forward_deep_path_agrees_with_f_and_roundtrips():
    n = 1100
    p = Permutation((1,) + tuple(range(n, 1, -1)))
    tree = F_forward(p)
    assert tree == f_forward(p)
    assert F_inverse(tree) == p


def test_F_roundtrip_on_large_bushy_trees():
    # F_inverse splits a bushy tree into many blocks, each checked against
    # the run of values it receives
    for seed in (1, 2):
        tree = random_valid_tree(seed, 10_000)
        p = F_inverse(tree)
        assert is_indecomposable(p)
        assert F_forward(p) == tree


def test_F_inverse_on_long_paths_agrees_with_f_in_bounded_time():
    # f_inverse is the independent O(n) fill, an oracle for deep trees; the
    # descent to each candidate keeps F_inverse well under the bound here
    for seed in (1, 2):
        tree = random_valid_tree(seed, 5000, bushy=False)
        start = time.perf_counter()
        p = F_inverse(tree)
        elapsed = time.perf_counter() - start
        assert p == f_inverse(tree)
        assert elapsed < 3.0, f"F_inverse took {elapsed:.2f} s on a 5000-node path"


def test_F_roundtrip_on_caterpillars():
    # deep trees that split into many blocks
    for seed in (1, 2, 3):
        tree = random_caterpillar_tree(seed, 2001)
        p = F_inverse(tree)
        assert is_indecomposable(p)
        assert F_forward(p) == tree


def test_F_roundtrip_on_uniform_trees():
    # uniform over all valid trees of their size, unlike the seeded shapes above
    for seed, n in enumerate(range(82, 101, 2)):
        tree = random_uniform_tree(seed, n)
        p = F_inverse(tree)
        assert not contains(p, Permutation((1, 3, 4, 2)))
        assert F_forward(p) == tree


# ---------------------------------------------------------------- forests

def test_forest_examples():
    assert [serialize(t) for t in forest_forward(P("312"))] == ["0", "0(0)"]
    p = P("35124")
    assert [serialize(t) for t in forest_forward(p)] == [serialize(F_forward(p))]


def test_forest_rejects_pattern():
    with pytest.raises(DomainError):
        forest_forward(P("1342"))


def test_forest_rejects_exactly_the_1342_containers():
    # every occurrence of 1342 lies inside one block, so the per-block guard
    # of F_forward rejects exactly the permutations that contain it
    with pytest.raises(DomainError, match="contains 1342"):
        forest_forward(P("51342"))
    for n in range(1, 8):
        for vals in permutations(range(1, n + 1)):
            if oracle_contains(vals, P1342.values):
                with pytest.raises(DomainError, match="contains 1342"):
                    forest_forward(Permutation(vals))
            else:
                assert len(forest_forward(Permutation(vals))) == len(decompose(Permutation(vals)))


def test_contains_1342_matches_subset_scan():
    # the extents pass refuses exactly the 1342 containers
    for n in range(0, 8):
        for vals in permutations(range(1, n + 1)):
            expected = oracle_contains(vals, P1342.values)
            assert extents_refuse_1342(vals) == expected, vals


def test_beat_extents_match_the_matrices():
    def last_true(row):
        return max((j for j, hit in enumerate(row) if hit), default=-1)

    for n in range(0, 8):
        for vals in permutations(range(1, n + 1)):
            if oracle_contains(vals, P1342.values):
                continue  # refused, see test_contains_1342_matches_subset_scan
            last_beaten, max_reach = _beat_extents(vals)
            assert last_beaten == [last_true(row) for row in oracle_beats_matrix(vals)], vals
            assert max_reach == [last_true(row) for row in oracle_reaches_matrix(vals)], vals


def test_f_forward_rejects_exactly_the_1342_containers():
    for n in range(1, 8):
        for rest in permutations(range(2, n + 1)):
            p = Permutation((1, *rest))
            if oracle_contains(p.values, P1342.values):
                with pytest.raises(DomainError, match="contains 1342"):
                    f_forward(p)
            else:
                assert f_inverse(f_forward(p)) == p


def _path_text_by_suffix_scan(vals):
    # leaf first: the entries before i above min(vals[i:]); the root repeats its child
    labels = []
    for i in range(1, len(vals)):
        suffix_min = min(vals[i:])
        labels.append(sum(1 for j in range(i) if vals[j] > suffix_min))
    labels.append(labels[-1] if labels else 0)
    text = str(labels[0])
    for label in labels[1:]:
        text = f"{label}({text})"
    return text


def test_f_forward_labels_match_the_suffix_scan():
    for n in range(1, 9):
        for p in iter_avoiders(n, P1342, "first_entry_is_1"):
            assert serialize(f_forward(p)) == _path_text_by_suffix_scan(p.values)
    p = Permutation((1,) + tuple(range(2000, 1, -1)))
    assert serialize(f_forward(p)) == _path_text_by_suffix_scan(p.values)


def test_forest_roundtrip_all_avoiders():
    for n in range(0, 7):
        seen = set()
        for p in iter_avoiders(n, P1342):
            forest = forest_forward(p)
            assert len(forest) == len(decompose(p))
            key = tuple(serialize(t) for t in forest)
            assert key not in seen
            seen.add(key)
            assert forest_inverse(forest) == p


def test_forest_count_on_four_vertices():
    images = {tuple(serialize(t) for t in forest_forward(p))
              for p in iter_avoiders(4, P1342)}
    assert len(images) == 23


@given(perm_strategy(min_n=1, max_n=7))
@settings(max_examples=100)
def test_forest_roundtrip_random(p):
    if not contains(p, P1342):
        assert forest_inverse(forest_forward(p)) == p
