import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyner.model import ModelParams, birth_rate, closest_integer, death_rate, derive


def test_derive_n2_symmetric():
    d = derive(ModelParams(2, 1.0, 1.0))
    assert d.N == 1
    assert d.p == 0.5
    assert d.update_rate == 2.0


def test_derive_n3():
    d = derive(ModelParams(3, 1.0, 1.0))
    assert d.N == 3
    assert d.p == pytest.approx(1 / 3, rel=1e-15)
    assert d.q == pytest.approx(2 / 3, rel=1e-15)
    assert d.update_rate == pytest.approx(1.5, rel=1e-15)


def test_equal_params_hash_equal_also_after_a_pickle_round_trip():
    # the hash is computed once, as the hash of the fields' tuple (the
    # dataclass default), and travels with a pickled copy to a worker
    d = derive(ModelParams(40, 1.0, 2.0))
    copies = [derive(ModelParams(40, 1, 2)), pickle.loads(pickle.dumps(d))]
    fields = (d.n, d.alpha, d.beta, d.N, d.p, d.q, d.update_rate)
    for copy in copies:
        assert copy == d
        assert hash(copy) == hash(d) == hash(fields)
    assert derive(ModelParams(40, 1.0, 2.5)) != d
    assert repr(d).count("=") == 7  # the cached hash is no field of the record


@pytest.mark.parametrize(
    "n,alpha,beta",
    [(1, 1.0, 1.0), (2, 0.0, 1.0), (2, 1.0, 0.0), (2, -1.0, 1.0), (2, 1.0, math.inf)],
)
def test_invalid_params_rejected(n, alpha, beta):
    with pytest.raises(ValueError):
        ModelParams(n, alpha, beta)


def test_non_integer_n_rejected():
    with pytest.raises(ValueError):
        ModelParams(2.5, 1.0, 1.0)


def test_boundary_rates():
    d = derive(ModelParams(5, 1.3, 0.7))
    assert death_rate(0, d) == 0.0
    assert birth_rate(d.N, d) == 0.0


def test_rates_n3_example():
    d = derive(ModelParams(3, 1.0, 1.0))
    assert birth_rate(1, d) == pytest.approx(1.0, rel=1e-15)
    assert death_rate(1, d) == pytest.approx(1.0, rel=1e-15)


def test_out_of_range_count_rejected():
    d = derive(ModelParams(4, 1.0, 1.0))
    with pytest.raises(ValueError):
        birth_rate(-1, d)
    with pytest.raises(ValueError):
        death_rate(d.N + 1, d)


rates = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)


@given(n=st.integers(2, 50), alpha=rates, beta=rates)
@settings(max_examples=60, deadline=None)
def test_chain_never_stalls_and_rates_monotone(n, alpha, beta):
    d = derive(ModelParams(n, alpha, beta))
    births = [birth_rate(k, d) for k in range(d.N + 1)]
    deaths = [death_rate(k, d) for k in range(d.N + 1)]
    assert all(b + m > 0 for b, m in zip(births, deaths))
    assert all(b1 > b2 for b1, b2 in zip(births, births[1:]))
    assert all(m1 < m2 for m1, m2 in zip(deaths, deaths[1:]))


@given(n=st.integers(2, 8), alpha=rates, beta=rates)
@settings(max_examples=60, deadline=None)
def test_detailed_balance_binomial(n, alpha, beta):
    # pi(k) lambda_k = pi(k+1) mu_{k+1} with pi = Binomial(N, p), in log space
    d = derive(ModelParams(n, alpha, beta))

    def log_pi(k):
        return (
            math.lgamma(d.N + 1)
            - math.lgamma(k + 1)
            - math.lgamma(d.N - k + 1)
            + k * math.log(d.p)
            + (d.N - k) * math.log(d.q)
        )

    for k in range(d.N):
        lhs = log_pi(k) + math.log(birth_rate(k, d))
        rhs = log_pi(k + 1) + math.log(death_rate(k + 1, d))
        assert abs(lhs - rhs) < 1e-12


def test_closest_integer_ties_to_even():
    assert closest_integer(0.5) == 0
    assert closest_integer(1.5) == 2
    assert closest_integer(2.5) == 2
    assert closest_integer(2.4) == 2
    assert closest_integer(2.6) == 3


@pytest.mark.parametrize("alpha", ["1", None, True, 1j])
def test_non_real_rate_rejected(alpha):
    with pytest.raises(ValueError, match="alpha must be a positive real"):
        ModelParams(4, alpha, 1.0)
