import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avoid1342 import (
    DomainError,
    IntegralityError,
    F_series,
    H_series_division,
    H_series_rational,
    TruncatedSeries,
    one_minus_8x_pow_3_2,
    reciprocal,
    scale,
    shift_divide,
    verify_H_algebraic,
)

from avoid1342 import counting, series

from oracles import oracle_sqrt_cubed_coefficient

#: the ten published counts of 1342-avoiders, n = 1..10
S1342_VALUES = [1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662]

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)


def series_from(values, order=None):
    return TruncatedSeries.from_coefficients(values, order=order)


# ---------------------------------------------------------------- arithmetic

def test_product_of_conjugates():
    one_plus = series_from([1, 1], order=4)
    one_minus = series_from([1, -1], order=4)
    assert (one_plus * one_minus).coeffs == (1, 0, -1, 0, 0)


def test_scale_doubles_every_coefficient():
    h = H_series_division(10)
    doubled = scale(h, 2)
    assert all(doubled.coefficient(n) == 2 * h.coefficient(n) for n in range(11))


@given(st.lists(rationals, min_size=1, max_size=8),
       st.lists(rationals, min_size=1, max_size=8),
       st.lists(rationals, min_size=1, max_size=8))
@settings(max_examples=100)
def test_mul_commutative_associative(a, b, c):
    order = min(len(a), len(b), len(c)) - 1
    sa, sb, sc = (series_from(v, order=order) for v in (a, b, c))
    assert sa * sb == sb * sa
    assert (sa * sb) * sc == sa * (sb * sc)


@given(st.one_of(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=12),
                 st.lists(rationals, min_size=1, max_size=12)),
       st.integers(0, 11))
@example([7], 0)
@example([1, -2, 3], 1)
@example([Fraction(1, 2), 2, Fraction(-3, 4), 5], 2)
@settings(max_examples=200)
def test_square_coefficient_equals_the_cauchy_coefficient(c, m):
    m = min(m, len(c) - 1)
    assert series._square_coefficient(c, m) == sum(c[i] * c[m - i] for i in range(m + 1))


def test_truncation_to_smaller_operand():
    a = series_from([1, 2, 3, 4])
    b = series_from([1, 1])
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_coefficient_read_beyond_order_refused():
    s = series_from([1, 2, 3])
    assert s.coefficient(2) == 3
    with pytest.raises(DomainError):
        s.coefficient(3)
    with pytest.raises(DomainError):
        s.truncate(5)


@pytest.mark.parametrize("build", [
    lambda order: series_from([1, 2, 3, 4, 5, 6]).truncate(order),
    lambda order: series_from([1, 2, 3, 4, 5, 6], order=order),
    lambda order: TruncatedSeries.constant(7, order),
], ids=["truncate", "from_coefficients", "constant"])
@pytest.mark.parametrize("order", [-1, -2, -3, -7])
def test_negative_order_is_refused(build, order):
    with pytest.raises(DomainError, match=f"^order must be nonnegative, got {order}$"):
        build(order)


def test_print_format():
    s = series_from([1, Fraction(1, 2), -3])
    assert str(s) == "0: 1\n1: 1/2\n2: -3"


# ---------------------------------------------------------------- reciprocal / shift

def test_reciprocal_geometric():
    geo = reciprocal(series_from([1, -1], order=6))
    assert geo.coeffs == (1,) * 7


def test_reciprocal_roundtrip():
    s = series_from([Fraction(2), Fraction(1, 3), -1, 5], order=12)
    assert reciprocal(reciprocal(s)) == s
    assert (s * reciprocal(s)).coeffs == (1,) + (0,) * 12


def test_reciprocal_needs_constant_term():
    with pytest.raises(DomainError) as err:
        reciprocal(series_from([0, 1]))
    assert err.value.index == 0


def test_shift_divide():
    assert shift_divide(series_from([0, 1, 1]), 1).coeffs == (1, 1)
    with pytest.raises(DomainError) as err:
        shift_divide(series_from([1, 1]), 1)
    assert err.value.index == 0
    assert shift_divide(series_from([0, 0, 7]), 2).coeffs == (7,)


# ---------------------------------------------------------------- named series

def test_sqrt_cubed_explicit_coefficients():
    s = one_minus_8x_pow_3_2(3)
    assert s.coeffs == (1, -12, 24, 32)


def test_sqrt_cubed_matches_binomial_expansion():
    s = one_minus_8x_pow_3_2(500)
    for n in range(501):
        assert s.coefficient(n) == oracle_sqrt_cubed_coefficient(n)


def test_F_series_coefficients():
    f = F_series(8)
    assert f.coefficient(0) == 0
    assert [int(f.coefficient(n)) for n in range(1, 6)] == [1, 1, 3, 12, 56]
    assert int(f.coefficient(8)) == 9152


def test_H_division_values():
    h = H_series_division(10)
    assert h.coefficient(0) == 1
    assert [int(h.coefficient(n)) for n in range(1, 11)] == S1342_VALUES


def test_H_division_equals_reciprocal_of_one_minus_F():
    order = 200
    one = TruncatedSeries.from_coefficients([1], order=order)
    alt = reciprocal(one - F_series(order))
    assert H_series_division(order) == alt


def test_H_rational_values():
    h = H_series_rational(10)
    assert h.coefficient(0) == 1
    assert int(h.coefficient(6)) == 512


def test_routes_agree_to_order_200():
    assert H_series_division(200) == H_series_rational(200)


def test_all_coefficients_are_integers():
    for s in (F_series(100), H_series_division(100), H_series_rational(100)):
        assert all(c.denominator == 1 for c in s.coeffs)


# ---------------------------------------------------------------- algebraicity

def test_verify_H_algebraic():
    assert verify_H_algebraic(200) is True
    assert verify_H_algebraic(1) is True


def test_verify_fails_on_perturbation():
    # a perturbation at index i first disturbs the identity at order i+1, so
    # check one order past the highest index being mutated
    order = 60
    h = H_series_division(order + 1)
    for index in (0, 1, 17, order):
        coeffs = list(h.coeffs)
        coeffs[index] += 1
        assert verify_H_algebraic(order + 1, TruncatedSeries(tuple(coeffs))) is False


def test_verify_order_must_cover_series():
    with pytest.raises(DomainError):
        verify_H_algebraic(50, H_series_division(10))


# ---------------------------------------------------------------- integer routes

def _rational_sqrt_cubed(order):
    return series_from([oracle_sqrt_cubed_coefficient(n) for n in range(order + 1)])


def _quotient(numerator, denominator):
    return numerator * reciprocal(denominator)


def test_integer_routes_equal_the_rational_quotients_to_300():
    order = 300
    c = _rational_sqrt_cubed(order + 1)
    division = _quotient(
        shift_divide(series_from([0, 32], order=order + 1), 1),
        shift_divide(series_from([1, 20, -8], order=order + 1) - c, 1),
    )
    rational = _quotient(c.truncate(order) + series_from([1, 20, -8], order=order),
                         series_from([2, 6, 6, 2], order=order))
    f = scale(shift_divide(c + series_from([-1, 12, 8], order=order + 1), 1), Fraction(1, 32))
    assert H_series_division(order) == division
    assert H_series_rational(order) == rational
    assert F_series(order) == f
    assert one_minus_8x_pow_3_2(order + 1) == c


def test_named_series_hold_fraction_coefficients():
    for s in (one_minus_8x_pow_3_2(0), one_minus_8x_pow_3_2(9), F_series(1), F_series(9),
              H_series_division(0), H_series_division(9), H_series_rational(0),
              H_series_rational(9)):
        assert all(type(c) is Fraction for c in s.coeffs)
    assert [s.order for s in (one_minus_8x_pow_3_2(0), F_series(1), H_series_division(0),
                              H_series_rational(0))] == [0, 1, 0, 0]


def test_H_division_text_is_pinned():
    assert str(H_series_division(8)) == (
        "0: 1\n1: 1\n2: 2\n3: 6\n4: 23\n5: 103\n6: 512\n7: 2740\n8: 15485"
    )


def test_solver_refuses_an_inexact_division():
    assert series._solve([4, 2], [2, -1], 1).coeffs == (2, 2)
    with pytest.raises(IntegralityError):
        series._solve([1], [2], 0)
    with pytest.raises(IntegralityError):
        series._solve([2, 1], [2, 6, 6, 2], 1)
    # a den of 331 terms takes the blocks: h = 1, 0, ..., 0, -1 divides exactly,
    # and -1/2 at x^330 does not
    blocked = [2, *[0] * 329]
    assert series._solve([2], blocked + [2], 330).coeffs == (1, *[0] * 329, -1)
    with pytest.raises(IntegralityError, match=r"x\^330 is not an exact division by 2"):
        series._solve([2], blocked + [1], 330)


def test_only_a_long_denominator_takes_the_blocks(monkeypatch):
    switch = series._SPLITS[0][0]

    def refuse(split, diagonals):
        raise AssertionError("a leaf table was built")
    monkeypatch.setattr(series, "_leaf_tables", refuse)
    # den lengths 1 and 4 keep the direct sum, so these routes stay linear
    assert F_series(2000).order == H_series_rational(2000).order == 2000
    # the division route either side of the switch from one block to blocks of 18
    assert [int(c) for c in H_series_division(switch - 1).coeffs] == \
        counting._s1342_closed_values(0, switch - 1)
    with pytest.raises(AssertionError, match="leaf table"):
        H_series_division(switch)
    monkeypatch.undo()
    assert [int(c) for c in H_series_division(switch).coeffs] == \
        counting._s1342_closed_values(0, switch)


# ---------------------------------------------------------------- error contract

sizes = st.integers(-3, 60)
small = st.integers(-3, 8)
coefficient_lists = st.lists(st.fractions(-3, 3, max_denominator=4), max_size=6).map(tuple)
truncated = coefficient_lists.filter(bool).map(TruncatedSeries)

#: each public function of ``series`` and ``counting`` with strategies for its arguments
CONTRACT = [(f, (sizes,)) for f in (
    counting.catalan, counting.t_closed, counting.t_recurrence, counting.indecomposable_count,
    counting.s1342_closed, counting.s1342_convolution, counting.s1234_closed,
    counting.s1234_recurrence, counting.nth_root_estimate, one_minus_8x_pow_3_2, F_series,
    H_series_division, H_series_rational, verify_H_algebraic)] + [
    # brute counts past n = 6 take seconds; 13 is above the default ceiling, refused first
    (counting.cross_check, (sizes, st.one_of(st.integers(-3, 6), st.just(13)))),
    (verify_H_algebraic, (small, truncated)),
    (TruncatedSeries, (coefficient_lists,)),
    (TruncatedSeries.from_coefficients, (coefficient_lists, small)),
    (TruncatedSeries.constant, (rationals, small)),
    (TruncatedSeries.coefficient, (truncated, small)),
    (TruncatedSeries.truncate, (truncated, small)),
    (operator.add, (truncated, truncated)),
    (operator.sub, (truncated, truncated)),
    (operator.mul, (truncated, truncated)),
    (operator.neg, (truncated,)),
    (scale, (truncated, rationals)),
    (reciprocal, (truncated,)),
    (shift_divide, (truncated, small)),
]


@st.composite
def contract_calls(draw):
    function, arguments = draw(st.sampled_from(CONTRACT))
    return function, tuple(draw(argument) for argument in arguments)


@settings(max_examples=200, deadline=None)
@given(contract_calls())
def test_series_and_counting_return_or_refuse_by_domain_error(call):
    function, arguments = call
    try:
        function(*arguments)
    except DomainError:
        pass


@pytest.mark.parametrize("function,arguments", [
    (counting.t_recurrence, (0,)),
    (counting.indecomposable_count, (0,)),
    (counting.s1342_convolution, (-1,)),
    (counting.s1234_closed, (0,)),
    (F_series, (0,)),
    (H_series_division, (-1,)),
    (H_series_rational, (-1,)),
    (one_minus_8x_pow_3_2, (-1,)),
    (verify_H_algebraic, (0,)),
    (shift_divide, (series_from([0, 0]), -1)),
    (shift_divide, (series_from([0, 0]), 2)),
    (TruncatedSeries, ((),)),
], ids=lambda value: getattr(value, "__qualname__", None))
def test_each_domain_edge_is_refused(function, arguments):
    with pytest.raises(DomainError):
        function(*arguments)
