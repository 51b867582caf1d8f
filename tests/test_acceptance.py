"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every expected number is an exact integer pinned
either to the published value list or to an exhaustive computation; runtime
bounds are asserted alongside correctness.
"""
import time
from itertools import permutations as iter_permutations

import pytest

from avoid1342 import (
    F_forward,
    F_inverse,
    H_series_division,
    H_series_rational,
    Permutation,
    TruncatedSeries,
    catalan,
    classify_shape,
    contains,
    count_avoiders,
    f_forward,
    f_inverse,
    generate_all_beta01,
    iter_avoiders,
    iter_shapes,
    iter_valid_labelings,
    normalize,
    nth_root_estimate,
    path_shape,
    perm_to_shape,
    s1234_closed,
    s1342_closed,
    s1342_convolution,
    serialize,
    shape_to_perm,
    t_closed,
    t_recurrence,
    validate_beta01,
    verify_H_algebraic,
)

from conftest import random_valid_tree

P1342 = Permutation((1, 3, 4, 2))
P1234 = Permutation((1, 2, 3, 4))
P132 = Permutation((1, 3, 2))

#: first ten counts of 1342-avoiders, pinned across every method
KNOWN_VALUES = [1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662]

#: valid labeled tree counts on 1..8 nodes, pinned by exhaustive generation
TREE_COUNTS = [1, 1, 3, 12, 56, 288, 1584, 9152]


def _report(number: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status}  [{elapsed:6.2f}s]  {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def closed_values_500():
    return [s1342_closed(n) for n in range(1, 501)]


@pytest.fixture(scope="module")
def convolution_500():
    return s1342_convolution(500)


def test_criterion_01_value_list():
    start = time.perf_counter()
    values = [s1342_closed(n) for n in range(1, 11)]
    elapsed = time.perf_counter() - start
    ok = values == KNOWN_VALUES and elapsed < 1.0
    _report(1, ok, elapsed, f"closed form n=1..10 -> {values}")


def test_criterion_02_oracle_agreement():
    start = time.perf_counter()
    mismatches = [
        n for n in range(1, 10)
        if s1342_closed(n) != count_avoiders(n, P1342)
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 300.0
    _report(2, ok, elapsed, f"closed == brute for n=1..9 (mismatches: {mismatches})")


def test_criterion_03_four_way_consistency(closed_values_500, convolution_500):
    start = time.perf_counter()
    division = H_series_division(500)
    rational = H_series_rational(500)
    bad = [
        n for n in range(1, 501)
        if not (closed_values_500[n - 1]
                == division.coefficient(n)
                == rational.coefficient(n)
                == convolution_500[n])
    ]
    elapsed = time.perf_counter() - start
    ok = not bad and division.coefficient(0) == rational.coefficient(0) == convolution_500[0] == 1 \
        and elapsed < 30.0
    _report(3, ok, elapsed, f"closed/division/rational/convolution agree to n=500 (bad: {bad[:3]})")


def test_criterion_04_bijection_roundtrip():
    start = time.perf_counter()
    failures = []
    cardinalities = []
    for n in range(1, 9):
        image = set()
        for p in iter_avoiders(n, P1342, "indecomposable"):
            tree = F_forward(p)
            if not validate_beta01(tree):
                failures.append(f"invalid image of {p}")
            text = serialize(tree)
            if text in image:
                failures.append(f"collision {text}")
            image.add(text)
            if F_inverse(tree) != p:
                failures.append(f"roundtrip broke at {p}")
        every_tree = {serialize(t) for t in generate_all_beta01(n)}
        if image != every_tree:
            failures.append(f"n={n}: image != all trees")
        cardinalities.append(len(image))
    elapsed = time.perf_counter() - start
    ok = not failures and cardinalities == TREE_COUNTS and elapsed < 300.0
    _report(4, ok, elapsed,
            f"bijective on n=1..8 with cardinalities {cardinalities} (failures: {failures[:3]})")


def test_criterion_05_sub_bijections():
    start = time.perf_counter()
    failures = []
    for n in range(1, 10):
        for tree in iter_valid_labelings(path_shape(n)):
            p = f_inverse(tree)
            if p.values[0] != 1 or serialize(f_forward(p)) != serialize(tree):
                failures.append(f"path roundtrip broke at {serialize(tree)}")
        for shape in iter_shapes(n):
            p = shape_to_perm(shape)
            if perm_to_shape(p) != shape:
                failures.append(f"shape roundtrip broke at {serialize(shape)}")
    counts_ok = all(
        sum(1 for _ in iter_shapes(n))
        == sum(1 for _ in iter_valid_labelings(path_shape(n)))
        == catalan(n - 1)
        for n in range(1, 11)
    )
    elapsed = time.perf_counter() - start
    ok = not failures and counts_ok and elapsed < 60.0
    _report(5, ok, elapsed,
            f"path and shape roundtrips n<=9; zero/path counts = Catalan(n-1) n<=10 "
            f"(failures: {failures[:3]})")


def test_criterion_06_recurrence_identity():
    start = time.perf_counter()
    bad = [n for n in range(1, 501) if t_recurrence(n) != t_closed(n)]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    _report(6, ok, elapsed, f"recurrence == closed form for n=1..500 (bad: {bad[:3]})")


def test_criterion_07_1234_formula():
    start = time.perf_counter()
    mismatches = [
        n for n in range(1, 9)
        if s1234_closed(n) != count_avoiders(n, P1234)
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 300.0
    _report(7, ok, elapsed, f"1234 closed == brute for n=1..8 (mismatches: {mismatches})")


def test_criterion_08_corollaries(closed_values_500):
    start = time.perf_counter()
    s1234_values = [s1234_closed(n) for n in range(1, 501)]
    power_bound = all(closed_values_500[n - 1] < 8 ** n for n in range(1, 501))
    closed_comparison = all(
        closed_values_500[n - 1] < s1234_values[n - 1] for n in range(6, 501)
    )
    oracle_comparison = all(
        count_avoiders(n, P1342) < count_avoiders(n, P1234) for n in (6, 7, 8)
    )
    elapsed = time.perf_counter() - start
    ok = power_bound and closed_comparison and oracle_comparison and elapsed < 30.0
    _report(8, ok, elapsed,
            f"s1342 < 8^n to 500: {power_bound}; s1342 < s1234 closed to 500: "
            f"{closed_comparison}, oracle 6..8: {oracle_comparison}")


def test_criterion_09_algebraicity():
    start = time.perf_counter()
    base_ok = verify_H_algebraic(200)
    # a perturbation at index i first shows at order i+1, so run the check one
    # order past the mutated range: every single-coefficient mutation of the
    # order-200 series must be caught
    reference = H_series_division(201)
    mutations_caught = True
    for index in range(201):
        coeffs = list(reference.coeffs)
        coeffs[index] += 1
        if verify_H_algebraic(201, TruncatedSeries(tuple(coeffs))):
            mutations_caught = False
            break
    elapsed = time.perf_counter() - start
    ok = base_ok and mutations_caught and elapsed < 10.0
    _report(9, ok, elapsed,
            f"identity holds at order 200: {base_ok}; all 201 mutations caught: {mutations_caught}")


def test_criterion_10_convergence_sanity(convolution_500):
    start = time.perf_counter()
    at_200 = nth_root_estimate(200)
    at_50 = nth_root_estimate(50)
    elapsed = time.perf_counter() - start
    ok = 7.3 < at_200 < 8.0 and at_200 > at_50 and elapsed < 10.0
    _report(10, ok, elapsed, f"s_n^(1/n): {at_50:.6f} at n=50 -> {at_200:.6f} at n=200")


def test_criterion_11_contains_on_a_long_avoider():
    # a 2 000-node random recursive tree, mapped to a 1342-avoider
    p = F_inverse(random_valid_tree(11, 2000))
    representative = normalize(p)
    start = time.perf_counter()
    has_1342 = contains(p, P1342)
    has_132 = contains(representative, P132)
    elapsed = time.perf_counter() - start
    ok = not has_1342 and not has_132 and elapsed < 2.0
    _report(11, ok, elapsed,
            f"contains on a 2000-entry avoider: 1342 {has_1342}, 132 on its representative {has_132}")
