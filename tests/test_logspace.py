import math
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyner.logspace import ONE, ZERO, LogNonNegative, log_add

magnitudes = st.floats(min_value=1e-150, max_value=1e150, allow_nan=False)


def test_zero_and_one():
    assert ZERO.value == 0.0
    assert ONE.value == 1.0
    assert (ZERO + ONE).value == 1.0
    assert (ONE + ZERO).log_value == 0.0  # exact when one operand is zero


def test_negative_rejected():
    with pytest.raises(ValueError):
        LogNonNegative.from_linear(-1.0)


@given(x=magnitudes, y=magnitudes)
@settings(max_examples=100, deadline=None)
def test_add_matches_linear(x, y):
    got = (LogNonNegative.from_linear(x) + LogNonNegative.from_linear(y)).value
    assert got == pytest.approx(x + y, rel=1e-12)


@given(x=magnitudes, y=magnitudes)
@settings(max_examples=100, deadline=None)
def test_add_commutes_exactly(x, y):
    a = LogNonNegative.from_linear(x)
    b = LogNonNegative.from_linear(y)
    assert (a + b).log_value == (b + a).log_value


def test_huge_values_never_materialize():
    big = LogNonNegative(5000.0)
    total = big + big
    assert total.log_value == pytest.approx(5000.0 + math.log(2.0), rel=1e-15)
    assert not total.is_representable
    assert total.value == math.inf
    squared = big * big
    assert squared.log_value == 10000.0


def test_multiplication_by_zero_is_zero():
    assert ZERO * LogNonNegative(1e308) == ZERO
    assert LogNonNegative(math.inf) * ZERO == ZERO


def test_ordering():
    assert ZERO < ONE < LogNonNegative.from_linear(2.0)


def test_log_sum_left_fold():
    # a log-sum is a left fold of log_add from -inf, the log of an exact zero
    values = [math.log(1.0), math.log(2.0), math.log(3.0)]
    assert math.exp(reduce(log_add, values, float("-inf"))) == pytest.approx(6.0, rel=1e-14)
    assert log_add(float("-inf"), float("-inf")) == float("-inf")
