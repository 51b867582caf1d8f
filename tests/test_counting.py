import hashlib
import json
import math
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import pytest

from avoid1342 import (
    DomainError,
    F_series,
    IntegralityError,
    Permutation,
    SequenceReport,
    catalan,
    count_avoiders,
    cross_check,
    generate_all_beta01,
    indecomposable_count,
    nth_root_estimate,
    s1234_closed,
    s1234_recurrence,
    s1342_closed,
    s1342_convolution,
    t_closed,
    t_recurrence,
)

from avoid1342 import counting, series, trees
from avoid1342.cli import main

from oracles import (
    oracle_catalan,
    oracle_s1342_closed_form,
    oracle_s1342_convolution,
    oracle_t_closed,
)

P1342 = Permutation((1, 3, 4, 2))
P1234 = Permutation((1, 2, 3, 4))

S1342_VALUES = [1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662]


def test_catalan():
    assert catalan(0) == 1
    assert catalan(3) == 5
    for n in range(0, 25):
        assert catalan(n) == oracle_catalan(n)
    with pytest.raises(DomainError):
        catalan(-1)


def test_catalan_counts_132_avoiders():
    for n in range(1, 8):
        assert count_avoiders(n, Permutation((1, 3, 2))) == catalan(n)


def test_t_closed_small_values():
    assert t_closed(1) == 1
    assert t_closed(2) == 3
    assert t_closed(4) == 56
    with pytest.raises(DomainError):
        t_closed(0)


def test_t_closed_matches_the_factorial_form_to_1500():
    for n in range(1, 1501):
        assert t_closed(n) == oracle_t_closed(n)
        assert indecomposable_count(n + 1) == oracle_t_closed(n)


def test_t_recurrence_matches_closed_form():
    assert t_recurrence(1) == 1
    assert t_recurrence(2) == 3
    for n in range(1, 101):
        assert t_recurrence(n) == t_closed(n)


def test_t_ratio_is_exact():
    for n in range(2, 101):
        assert t_closed(n) * (n + 2) == t_closed(n - 1) * (8 * n - 4)


def test_indecomposable_count():
    assert indecomposable_count(1) == 1
    assert indecomposable_count(3) == 3
    for n in range(2, 101):
        assert indecomposable_count(n) == t_closed(n - 1)


def test_indecomposable_count_matches_series():
    f = F_series(100)
    for n in range(1, 101):
        assert indecomposable_count(n) == f.coefficient(n)


def test_indecomposable_count_matches_brute_force_and_trees():
    for n in range(1, 8):
        assert indecomposable_count(n) == count_avoiders(n, P1342, "indecomposable")
        assert indecomposable_count(n) == sum(1 for _ in generate_all_beta01(n))


def test_s1342_closed_values():
    assert s1342_closed(1) == 1
    assert s1342_closed(6) == 512
    assert s1342_closed(10) == 555662
    assert [s1342_closed(n) for n in range(1, 11)] == S1342_VALUES
    with pytest.raises(DomainError):
        s1342_closed(0)


def test_s1342_convolution(monkeypatch):
    values = s1342_convolution(10)
    assert values[0] == 1
    assert values[2] == 2
    assert values[5] == 103
    assert values[1:] == S1342_VALUES
    expected = oracle_s1342_convolution(72)
    switch = series._SPLITS[0][0]
    for least, split in series._SPLITS:
        monkeypatch.setattr(series, "_SPLITS", ((0, split),))
        # every shape of a partial last block of 18 over four blocks, and the empty
        # split's one block of every length
        for up_to in range(73):
            assert s1342_convolution(up_to) == expected[:up_to + 1]
        # the blocked route reads t(1..up_to-1) only, though its last block reaches past up_to
        for up_to in (0, 1, 2, 3, 17, 18, 19, 35, 36, 37, 72):
            monkeypatch.setattr(counting, "_t_cache", [None, 1])
            s1342_convolution(up_to)
            assert len(counting._t_cache) == max(up_to, 2)
    monkeypatch.undo()
    # either side of the switch from the one block to blocks of 18
    for up_to in (switch - 1, switch):
        assert s1342_convolution(up_to) == counting._s1342_closed_values(0, up_to)


SPLITS = sorted({split for _, split in series._SPLITS} | {(2,), (3,), (2, 3), (3, 2)})


@pytest.mark.parametrize("split", SPLITS, ids=lambda split: "x".join(map(str, split)) or "1")
@pytest.mark.parametrize("chunk", ["default", "one block"])
def test_block_product_is_the_scaled_toeplitz_product(monkeypatch, split, chunk):
    # the kernel alone, on signed integers with trailing zeros: scale times
    # sum_j T_(k-j)·x_j with T_e[r][c] = d_e(r - c), which pins the weights of _LEVELS
    size = math.prod(split)
    scale = math.prod(series._LEVELS[f][3] for f in split)
    if chunk == "one block":
        monkeypatch.setattr(series, "_CHUNK", size)
    rng = random.Random(2900 + size)

    def draw():
        return rng.randint(-10 ** 30, 10 ** 30) << rng.randrange(40)
    for k in (1, 2, 10):
        # d[e][o + size - 1] = d_e(o) for k - j = e in 1..k; e = 0 is never read
        d = [[0] * (2 * size - 1)] + [[draw() for _ in range(2 * size - 1)] for _ in range(k)]
        x = [draw() for _ in range(k * size)]  # x_j[c] at j·size + c
        odd, shift = zip(*series._leaf_tables(split, [list(diagonal) for diagonal in zip(*d)]))
        assert series._block_product(split, odd, shift, x, k) == [
            scale * sum(d[k - j][r - c + size - 1] * x[j * size + c]
                        for j in range(k) for c in range(size))
            for r in range(size)]


def test_a_nudged_leaf_fails_the_block_division(monkeypatch, capsys):
    monkeypatch.setattr(series, "_SPLITS", ((0, (3, 3, 2)),))
    leaf_tables = series._leaf_tables

    def nudged(split, diagonals):
        leaves = leaf_tables(split, diagonals)
        if split == (3, 3, 2):  # the outermost call: one leaf's odd part at k - j = 1
            leaves[0][0][1] += 1
        return leaves
    monkeypatch.setattr(series, "_leaf_tables", nudged)
    with pytest.raises(IntegralityError, match="convolution block"):
        s1342_convolution(40)
    # the division route solves on the same blocks
    with pytest.raises(IntegralityError, match="convolution block"):
        series.H_series_division(400)
    code = main(["count", "--pattern", "1342", "--n", "40", "--method", "convolution"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("internal error: s1342(") and err.count("\n") == 1


def test_convolution_matches_closed_form_to_1200():
    values = s1342_convolution(1200)
    assert len(values) == 1201
    for n in range(1, 1201):
        assert values[n] == s1342_closed(n)


def test_s1234_closed():
    assert s1234_closed(2) == 2
    assert s1234_closed(5) == 103
    assert s1234_closed(7) == 2761
    for n in range(1, 8):
        assert s1234_closed(n) == count_avoiders(n, P1234)


def test_bounds_hold_to_100():
    for n in range(1, 101):
        assert s1342_closed(n) < 8 ** n
    for n in range(6, 101):
        assert s1342_closed(n) < s1234_closed(n)


def test_s1234_recurrence_matches_closed_form_and_brute_force():
    values = s1234_recurrence(300)
    assert len(values) == 301 and values[0] == 1
    assert all(values[n] == s1234_closed(n) for n in range(1, 301))
    assert all(values[n] == count_avoiders(n, P1234) for n in range(0, 9))
    assert s1234_recurrence(0) == [1]
    assert s1234_recurrence(1) == [1, 1]
    with pytest.raises(DomainError):
        s1234_recurrence(-1)


def test_s1234_values_is_a_range_of_the_recurrence():
    for hi in (0, 1, 2, 3, 7, 300):
        values = s1234_recurrence(hi)
        for lo in (0, 1, hi // 2, hi, hi + 1):
            assert counting._s1234_values(lo, hi) == values[lo:]


def test_closed_1234_count_keeps_only_its_row(capsys):
    main(["count", "--pattern", "1234", "--n", "40", "--method", "closed"])  # imports the layers
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["count", "--pattern", "1234", "--n", "4000", "--method", "closed"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (0, f"{s1234_recurrence(4000)[4000]}\n")
    assert peak < 500_000  # the whole list of 4 001 values takes about 3.6 MB


def test_s1342_equals_s1234_below_six():
    # the strict inequality starts at n = 6; below that the counts coincide
    for n in range(1, 6):
        assert s1342_closed(n) == s1234_closed(n)


def test_nth_root_estimate():
    assert nth_root_estimate(1) == 1.0
    value = nth_root_estimate(60)
    assert 6.0 < value < 8.0
    assert nth_root_estimate(60) > nth_root_estimate(20)
    with pytest.raises(DomainError):
        nth_root_estimate(0)


@pytest.mark.parametrize("n", [1, 2, 60, 300])
def test_nth_root_estimate_matches_the_convolution_value(n):
    assert nth_root_estimate(n) == math.exp(math.log(s1342_convolution(n)[n]) / n)


def test_cross_check_consistent():
    report = cross_check(30, 6)
    assert report.consistent
    names = {r.name for r in report.reports}
    assert names == {"s1342", "t", "indecomposable-1342", "catalan"}
    assert report.bound_violations == []


def test_cross_check_trivial_and_full():
    assert cross_check(1, 1).consistent
    # the full build-time verification run
    assert cross_check(100, 8).consistent


def test_cross_check_detects_injected_error():
    report = cross_check(10, 4, inject_error=True)
    assert not report.consistent
    bad = [r for r in report.reports if r.name == "s1342"][0]
    assert bad.discrepancies


#: sha256 of ``cross_check(up_to_closed, up_to_brute, inject_error=...).to_json()``: entries,
#: their order and the discrepancies are the report's bytes.  up_to_closed 0..3 moves the
#: injected n = min(3, up_to_closed); the grid takes in up_to_brute 0 and brute ranges past
#: the closed one.  None marks a refusal: with up_to_closed 0 there is no closed n to corrupt
CROSS_CHECK_JSON_SHA256 = [
    ((0, 0, False), '516aa0e824efd254e7e8b8f51c407b598ab19dcdbdbaa855e8be1d9cdea429ea'),
    ((0, 0, True), None),
    ((0, 2, False), 'c9a923553a9287fc666455b647f2ce7c21732e711f8e05fbb178466e899226c6'),
    ((0, 2, True), None),
    ((1, 0, False), '99921df188857f6362ab005ec49323a919b2974797cc909117de3d856c435566'),
    ((1, 0, True), 'faee2e6c0edb8b495373e0300fe975623856feefce475365173a8a7f7e9a3f90'),
    ((1, 4, False), 'eebf939b84c3010a4ab6a9d776d56cc360d408c8e08475ef898f8a971885abdf'),
    ((1, 4, True), '4e268ef7bd70883899f68bc516d15322ec124ccf781cf63eb16c4dccb75c26b2'),
    ((2, 1, False), 'a61ff499e09ec5133b633728dfc0dcaba7b79191bb20ad100e9c0f5cfbe9cc5e'),
    ((2, 1, True), 'f051ba46a8c7a8d5e74893b9c11d434c97b97ac2171085741341cb81fa91f5ee'),
    ((3, 3, False), '4bd776704978c38c089e3c2029e6090237ced1b2ba041bea56407715f279e81c'),
    ((3, 3, True), '1d445aa225e8b6544ac1449856225515e8acb02d64a3cd9a7dae119ce1d652a1'),
    ((3, 0, False), '4d32771da6c8dd9a3841c83e681dd8021e512dbadb3026bf2da97aa98d9209ed'),
    ((3, 0, True), '38a75a8618c62b335ec68cc2c50a75f5125b2bae80228d1ea3ddc915120ec636'),
    ((5, 2, False), '54debf47799afafcfbdd4875da1ca2ce8561a4cfb1a152574bdd4429c6dee9de'),
    ((5, 2, True), '7e474096090a67840f591b1ca53faa8c8d91f2465dc299fc4ad3f62d8a6df883'),
    ((12, 8, False), 'c74da5ade35f035cdb5b3a26f289c620b3d663ea3d25680bf61408e2df112b05'),
    ((12, 8, True), 'e0e614987b47d754775599dbee0d853d064ca9859fd41ddda81b89a619c5586d'),
    ((50, 7, False), '57e84b5f1e0385ce93fc5b4e58f07c4a486f212fb686f7176aa43b81f69a7dc5'),
    ((50, 7, True), 'efd21345aae0815a939279b647baa4bd3d26d3672136eca8e714ba7027dc480a'),
    ((150, 6, False), '96dd97a2bce6412c3e74e382f343cdedd8a60f18ffe9245d89f4cdc932d9a4ca'),
    ((150, 6, True), '3a783fefdd22a9cd63479f71e80d1d2c3cde5a63a60b9c6e2d3a54c544615252'),
    ((60, 9, False), '63d3a95efd9d4b25b65082201ebe5f4c691ed914d8867cf62381b18744fa4a4a'),
    ((60, 9, True), 'faa87f43a7b504aa4c179b051faf3d37cf330f0a7d86ae1b97b7aaf66dade6f1'),
]


@pytest.mark.parametrize("arguments,digest", CROSS_CHECK_JSON_SHA256)
def test_cross_check_json_is_pinned(arguments, digest):
    up_to_closed, up_to_brute, inject_error = arguments
    if digest is None:
        with pytest.raises(DomainError, match="inject_error needs up_to_closed >= 1"):
            cross_check(up_to_closed, up_to_brute, inject_error=inject_error)
        return
    text = cross_check(up_to_closed, up_to_brute, inject_error=inject_error).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_cross_check_bound_reads_one_1234_recurrence_pass(monkeypatch):
    # one pass over the closed range; summing the closed form per n was cubic
    calls = []

    def too_small(up_to):
        calls.append(up_to)
        return [0] * (up_to + 1)

    monkeypatch.setattr(counting, "s1234_recurrence", too_small)
    report = cross_check(12, 4)
    assert calls == [12]
    assert report.bound_violations == [f"s1342({n}) >= s1234({n}) [closed]" for n in range(6, 13)]


def test_cross_check_reports_a_closed_value_at_8_to_the_n(monkeypatch):
    values = counting._s1342_closed_values

    def raised_at_3(lo, hi):
        return [8 ** n if n == 3 else v for n, v in enumerate(values(lo, hi), start=lo)]

    monkeypatch.setattr(counting, "_s1342_closed_values", raised_at_3)
    assert cross_check(8, 0).bound_violations == ["s1342(3) >= 8^3"]


def test_cross_check_reports_the_brute_1234_bound(monkeypatch):
    count = counting.count_avoiders

    def too_small(n, pattern, *args, **kwargs):
        return 0 if pattern == counting._P1234 else count(n, pattern, *args, **kwargs)

    monkeypatch.setattr(counting, "count_avoiders", too_small)
    assert cross_check(8, 7).bound_violations == [
        f"s1342({n}) >= s1234({n}) [brute]" for n in (6, 7)]


def test_cross_check_refuses_inject_error_only_where_the_closed_range_is_empty():
    # the closed range starts at n = 1: with up_to_closed 0 the flag corrupted nothing
    for up_to_brute in (0, 3):
        with pytest.raises(DomainError, match="inject_error needs up_to_closed >= 1, got 0"):
            cross_check(0, up_to_brute, inject_error=True)
    # the brute bounds are refused first, and a negative closed bound by the convolution
    with pytest.raises(DomainError, match="up_to_brute must be nonnegative"):
        cross_check(0, -1, inject_error=True)
    with pytest.raises(DomainError, match="up_to must be nonnegative, got -1"):
        cross_check(-1, 0, inject_error=True)
    assert not cross_check(1, 0, inject_error=True).consistent


def test_cross_check_respects_brute_ceiling():
    with pytest.raises(DomainError):
        cross_check(10, 13)


def test_cross_check_refuses_a_negative_brute_bound_before_any_work(monkeypatch):
    def no_work(up_to):
        raise AssertionError("cross_check ran the convolution")

    monkeypatch.setattr(counting, "s1342_convolution", no_work)
    with pytest.raises(DomainError, match="up_to_brute must be nonnegative, got -1"):
        cross_check(5, -1)


def test_cross_check_counts_the_trees_without_building_one(monkeypatch):
    # the trees column reads count_beta01's label-sum tables; the stream stays
    # checked against them in test_trees
    def no_stream(*args, **kwargs):
        raise AssertionError("cross_check built the trees")

    assert not hasattr(counting, "generate_all_beta01")
    monkeypatch.setattr(trees, "generate_all_beta01", no_stream)
    report = cross_check(8, 8)
    assert report.consistent
    (indecomposable,) = [r for r in report.reports if r.name == "indecomposable-1342"]
    assert [(n, v) for n, v, method in indecomposable.entries if method == "trees"] == [
        (n, indecomposable_count(n)) for n in range(1, 9)]


def test_cross_check_at_the_brute_ceiling_takes_seconds():
    # building all 13.9 M trees on 12 nodes made this half a minute or more
    start = time.perf_counter()
    report = cross_check(50, 12)
    elapsed = time.perf_counter() - start
    assert report.consistent
    assert elapsed < 5.0, f"cross_check(50, 12) took {elapsed:.2f} s"


def test_t_cache_grows_correctly_under_threads(monkeypatch):
    # four threads grow a cold cache at once, switching every microsecond: an
    # unlocked check-then-append stores a term twice and shifts every later one
    expected = [None] + [t_closed(n) for n in range(1, 401)]
    interval = sys.getswitchinterval()
    for trial in range(50):
        monkeypatch.setattr(counting, "_t_cache", [None, 1])
        caught = []

        def grow():
            try:
                t_recurrence(400)
            except Exception as exc:  # recorded here, raised by the assertion below
                caught.append(exc)
        workers = [threading.Thread(target=grow) for _ in range(4)]
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert caught == [], (trial, caught)
        assert counting._t_cache == expected, trial


def test_sequence_report_add_is_linear_in_the_number_of_entries():
    report = SequenceReport("s")
    start = time.perf_counter()
    for k in range(20_000):
        report.add(k // 4, k // 4, f"m{k % 4}")
    elapsed = time.perf_counter() - start
    assert len(report.entries) == 20_000 and report.consistent
    assert elapsed < 0.5, f"20 000 adds took {elapsed:.2f} s"


def test_sequence_report_lists_discrepancies_in_entry_order():
    def build(first):
        report = SequenceReport("s", first)
        for n, value, method in [(2, 2, "a"), (1, 1, "b"), (2, 3, "b"), (1, 5, "c"),
                                 (2, 2, "c"), (3, 7, "a"), (1, 1, "d")]:
            report.add(n, value, method)
        return report

    # the first entries as a list or a tuple: the report keeps a list of its own
    for first in ([(1, 1, "a")], ((1, 1, "a"),)):
        report = build(first)
        assert report.discrepancies == [(2, "a", "b"), (1, "a", "c"), (1, "b", "c"),
                                        (2, "b", "c"), (1, "c", "d")]
        assert report.entries[0] == (1, 1, "a") and len(report.entries) == 8
        assert report == build(first) and len(first) == 1
        assert repr(report) == (f"SequenceReport(name='s', entries={report.entries!r}, "
                                f"discrepancies={report.discrepancies!r})")
        assert report != SequenceReport("s", list(report.entries), [])


def test_report_json_schema():
    report = cross_check(8, 4)
    payload = json.loads(report.to_json())
    assert payload["consistent"] is True
    seq = payload["sequences"][0]
    assert set(seq) == {"name", "entries", "discrepancies"}
    entry = seq["entries"][0]
    assert set(entry) == {"n", "value", "method"}
    assert isinstance(entry["value"], str)  # decimal string, not a JSON number


def test_s1342_closed_matches_the_rational_formula_to_300():
    for n in range(1, 301):
        assert s1342_closed(n) == oracle_s1342_closed_form(n)


def test_the_closed_form_oracle_is_exact_from_zero():
    # s1342_closed refuses n = 0; the closed route's values give s(0) = 1
    expected = counting._s1342_closed_values(0, 30)
    for n in range(31):
        value = oracle_s1342_closed_form(n)
        assert type(value) is Fraction and value == expected[n], n
        assert n == 0 or value == s1342_closed(n)


@pytest.mark.parametrize("warm", [False, True])
def test_s1342_closed_values_edge_cases(monkeypatch, warm):
    # a warm cache holds more t than up_to reads; at up_to = 0 a slice
    # _t_cache[1:up_to - 1] would read all of it
    expected = s1342_convolution(600)
    for up_to in [*range(41), 600]:
        monkeypatch.setattr(counting, "_t_cache", [None, 1])
        if warm:
            counting.t_recurrence(700)
        values = counting._s1342_closed_values(0, up_to)
        assert values == [1] + [s1342_closed(n) for n in range(1, up_to + 1)]
        assert values == expected[:up_to + 1] == s1342_convolution(up_to)
        for lo in {0, 1, up_to // 2, up_to, up_to + 1}:
            assert counting._s1342_closed_values(lo, up_to) == values[lo:]
    with pytest.raises(DomainError):
        cross_check(-3, 0)


def test_s1342_closed_is_the_same_before_and_after_the_cache_grows(monkeypatch):
    monkeypatch.setattr(counting, "_t_cache", [None, 1])
    assert s1342_closed(5) == 103
    closed = s1342_closed(400)
    assert len(counting._t_cache) == 399  # t(1..398); the convolution grows it further
    assert closed == s1342_convolution(400)[400]
    assert s1342_closed(5) == 103
