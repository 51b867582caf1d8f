import json
import math
import time

import pytest

from avoid1342 import (
    DomainError,
    F_series,
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

from avoid1342 import counting

from oracles import oracle_catalan, oracle_s1342_closed_form, oracle_t_closed

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


def test_s1342_convolution():
    values = s1342_convolution(10)
    assert values[0] == 1
    assert values[2] == 2
    assert values[5] == 103
    assert values[1:] == S1342_VALUES


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


def test_cross_check_respects_brute_ceiling():
    with pytest.raises(DomainError):
        cross_check(10, 13)


def test_sequence_report_add_is_linear_in_the_number_of_entries():
    report = SequenceReport("s")
    start = time.perf_counter()
    for k in range(20_000):
        report.add(k // 4, k // 4, f"m{k % 4}")
    elapsed = time.perf_counter() - start
    assert len(report.entries) == 20_000 and report.consistent
    assert elapsed < 0.5, f"20 000 adds took {elapsed:.2f} s"


def test_sequence_report_lists_discrepancies_in_entry_order():
    def build():
        report = SequenceReport("s", [(1, 1, "a")])
        for n, value, method in [(2, 2, "a"), (1, 1, "b"), (2, 3, "b"), (1, 5, "c"),
                                 (2, 2, "c"), (3, 7, "a"), (1, 1, "d")]:
            report.add(n, value, method)
        return report

    report = build()
    assert report.discrepancies == [(2, "a", "b"), (1, "a", "c"), (1, "b", "c"),
                                    (2, "b", "c"), (1, "c", "d")]
    assert report.entries[0] == (1, 1, "a") and len(report.entries) == 8
    assert report == build()
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


def test_s1342_closed_is_the_same_before_and_after_the_cache_grows(monkeypatch):
    monkeypatch.setattr(counting, "_t_cache", [None, 1])
    assert s1342_closed(5) == 103
    closed = s1342_closed(400)
    assert len(counting._t_cache) == 399  # t(1..398); the convolution grows it further
    assert closed == s1342_convolution(400)[400]
    assert s1342_closed(5) == 103
