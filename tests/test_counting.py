import json

import pytest

from avoid1342 import (
    DomainError,
    F_series,
    Permutation,
    catalan,
    count_avoiders,
    cross_check,
    generate_all_beta01,
    indecomposable_count,
    nth_root_estimate,
    s1234_closed,
    s1342_closed,
    s1342_convolution,
    t_closed,
    t_recurrence,
)

from avoid1342 import counting

from oracles import oracle_catalan, oracle_s1342_closed_form

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


def test_convolution_matches_closed_form_to_200():
    values = s1342_convolution(200)
    for n in range(1, 201):
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


def test_cross_check_respects_brute_ceiling():
    with pytest.raises(DomainError):
        cross_check(10, 13)


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
    monkeypatch.setattr(counting, "_s1342_terms", [None, None, 12])
    assert s1342_closed(5) == 103
    assert s1342_closed(400) == s1342_convolution(400)[400]
    assert len(counting._s1342_terms) == 401
    assert s1342_closed(5) == 103
