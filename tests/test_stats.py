import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyner.stats import ks_distance, mean_ci


def test_mean_ci_hand_example():
    est = mean_ci([0.0, 2.0])
    assert est.mean == 1.0
    assert est.half_width == pytest.approx(1.96, rel=1e-12)  # 1.96 * sqrt(2)/sqrt(2)
    assert est.count == 2


def test_mean_ci_constant_samples():
    est = mean_ci([3.5] * 10)
    assert est.mean == 3.5
    assert est.half_width == 0.0


def test_mean_ci_requires_two():
    with pytest.raises(ValueError):
        mean_ci([1.0])


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40), st.randoms())
@settings(max_examples=60, deadline=None)
def test_mean_ci_permutation_invariant(xs, rand):
    shuffled = list(xs)
    rand.shuffle(shuffled)
    a = mean_ci(xs)
    b = mean_ci(shuffled)
    assert a.mean == b.mean
    assert a.half_width == b.half_width


def test_half_width_scales_like_inverse_sqrt_count():
    rng = np.random.default_rng(7)
    xs = rng.normal(size=4000)
    half = mean_ci(xs[:2000]).half_width
    full = mean_ci(xs).half_width
    assert full * math.sqrt(2) == pytest.approx(half, rel=0.15)


@pytest.mark.parametrize("samples", [[], ()])
def test_ks_needs_a_sample(samples):
    with pytest.raises(ValueError, match="need at least one sample"):
        ks_distance(samples, lambda x: 0.5)


def test_ks_single_sample_at_median():
    assert ks_distance([0.0], lambda x: 0.5) == pytest.approx(0.5)


def test_ks_quantile_construction():
    m = 99
    quantiles = [(k + 1) / (m + 1) for k in range(m)]  # exact uniform quantiles
    dist = ks_distance(quantiles, lambda x: x)
    assert dist <= 1.0 / (m + 1) + 1e-12


def test_ks_exponential_reference():
    rng = np.random.default_rng(11)
    xs = rng.exponential(size=10_000)
    dist = ks_distance(xs, lambda x: -math.expm1(-x))
    assert dist <= 0.02


def test_ks_invariant_under_monotone_transform():
    rng = np.random.default_rng(13)
    xs = rng.exponential(size=500)

    def cdf(x):
        return -math.expm1(-x)

    def transformed_cdf(y):
        return cdf((y - 3.0) / 2.0)

    assert ks_distance(xs, cdf) == ks_distance(2.0 * xs + 3.0, transformed_cdf)

