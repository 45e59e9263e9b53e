import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyner import analytic as an
from dyner.logspace import LogNonNegative
from dyner.model import ModelParams, _kernel_rates, derive


def _d(n, alpha=1.0, beta=1.0):
    return derive(ModelParams(n, alpha, beta))


# ------------------------------------------------------------ transitions


def test_transition_at_zero():
    d = _d(5)
    assert an.transition_probability(0, 1, 0.0, d) == 0.0
    assert an.transition_probability(1, 1, 0.0, d) == 1.0


def test_transition_two_vertices_closed_form():
    d = _d(2)
    t = math.log(2.0) / 2.0
    assert an.transition_probability(0, 1, t, d) == pytest.approx(0.25, rel=1e-14)
    for t in (0.1, 0.7, 3.0):
        expected = 0.5 * -math.expm1(-2.0 * t)
        assert an.transition_probability(0, 1, t, d) == pytest.approx(expected, rel=1e-14)


def test_transition_rows_normalize():
    d = _d(7, 0.4, 2.2)
    for start in (0, 1):
        total = sum(an.transition_probability(start, end, 0.9, d) for end in (0, 1))
        assert total == pytest.approx(1.0, rel=1e-14)


def test_transition_rejects_bad_inputs():
    d = _d(3)
    with pytest.raises(ValueError):
        an.transition_probability(0, 1, -0.1, d)
    with pytest.raises(ValueError):
        an.transition_probability(2, 1, 0.1, d)


def test_chapman_kolmogorov():
    d = _d(6, 0.7, 1.9)
    for t in np.linspace(0.05, 3.0, 12):
        for s in np.linspace(0.05, 3.0, 12):
            direct = an.transition_probability(0, 1, t + s, d)
            composed = an.transition_probability(0, 0, t, d) * an.transition_probability(
                0, 1, s, d
            ) + an.transition_probability(0, 1, t, d) * an.transition_probability(1, 1, s, d)
            assert abs(direct - composed) < 1e-12


# ------------------------------------------------------------ separation


def test_edge_separation_endpoints():
    d = _d(4)
    assert an.edge_separation(0.0, d) == 1.0
    assert an.edge_separation(500.0, d) == pytest.approx(0.0, abs=1e-250)


def test_edge_separation_identity_both_states():
    d = _d(5)
    for t in (0.25, 1.0, 2.5):
        s = an.edge_separation(t, d)
        from_empty = 1.0 - an.transition_probability(0, 1, t, d) / an.stationary_probability(1, d)
        from_full = 1.0 - an.transition_probability(1, 0, t, d) / an.stationary_probability(0, d)
        assert abs(s - from_empty) < 1e-12
        assert abs(s - from_full) < 1e-12


def test_graph_separation_complements_cdf():
    d = _d(12, 0.8, 1.1)
    for t in (0.0, 0.3, 2.0, 9.0):
        assert an.graph_separation(t, d) == pytest.approx(
            1.0 - an.stationarity_cdf(t, d), abs=1e-14
        )


def test_stationarity_cdf_is_separation_power():
    d = _d(9, 1.4, 0.6)
    for t in (0.2, 0.9, 3.1):
        assert an.stationarity_cdf(t, d) == pytest.approx(
            (1.0 - an.edge_separation(t, d)) ** d.N, rel=1e-12
        )


# ------------------------------------------------------------ stationarity time


def test_stationarity_cdf_trivia():
    d = _d(2)
    assert an.stationarity_cdf(0.0, d) == 0.0
    for t in (0.2, 1.0, 4.0):
        assert an.stationarity_cdf(t, d) == pytest.approx(-math.expm1(-2.0 * t), rel=1e-14)


def test_stationarity_cdf_frozen_n100():
    # exact evaluation at t = (2 log 100 - log 2)/alpha; the Gumbel limit puts
    # this near e^-1 but the finite-n value is itself the reference
    d = _d(100)
    t = 2.0 * math.log(100.0) - math.log(2.0)
    value = an.stationarity_cdf(t, d)
    naive = (1.0 - math.exp(-d.update_rate * t)) ** d.N
    assert value == pytest.approx(naive, rel=1e-12)
    assert value == pytest.approx(0.40313961025329786, rel=1e-12)
    assert abs(value - math.exp(-1.0)) < 0.05


def test_gumbel_limit_values():
    assert an.gumbel_limit_cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert an.gumbel_limit_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, rel=1e-14)
    assert an.gumbel_limit_cdf(40.0) == pytest.approx(1.0, abs=1e-12)
    assert an.gumbel_limit_cdf(-1e6) == 0.0


def test_expected_stationarity_time_small():
    assert an.expected_stationarity_time(_d(2)) == pytest.approx(0.5, rel=1e-14)
    assert an.expected_stationarity_time(_d(3)) == pytest.approx(11.0 / 9.0, rel=1e-14)


def test_expected_stationarity_time_mc_oracle():
    # direct construction: max of N iid exponentials
    d = _d(4)
    rng = np.random.default_rng(2024)
    draws = rng.exponential(1.0 / d.update_rate, size=(100_000, d.N)).max(axis=1)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - an.expected_stationarity_time(d)) < 3 * se


# ------------------------------------------------------------ hitting times


def test_hitting_step_examples(d3):
    assert an.expected_hitting_step(0, d3).value == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert an.expected_hitting_step(1, d3).value == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_hitting_step_single_edge():
    d = _d(2)
    assert an.expected_hitting_step(0, d).value == pytest.approx(1.0, rel=1e-14)


def test_hitting_step_rejects_top(d3):
    with pytest.raises(ValueError):
        an.expected_hitting_step(d3.N, d3)


def test_hitting_series_matches_recursion(d3):
    # series closed form at i=1: (2 * 1! * 1! / 3!) * (C(3,1) + C(3,0)*2) = 5/3
    assert an.expected_hitting_step_series(1, d3).value == pytest.approx(5.0 / 3.0, rel=1e-12)
    for n, alpha, beta in ((4, 1.0, 2.0), (6, 2.0, 1.0), (8, 1.0, 1.0)):
        d = _d(n, alpha, beta)
        for i in range(d.N):
            series = an.expected_hitting_step_series(i, d)
            rec = an.expected_hitting_step(i, d)
            assert series.log_value == pytest.approx(rec.log_value, abs=1e-9)
    # deep in the chain the two forms agree to 1e-10 relative, not only in log
    d = _d(2000)
    for i in range(0, 2000, 10):
        series = an.expected_hitting_step_series(i, d)
        rec = an.expected_hitting_step(i, d)
        assert abs(math.expm1(series.log_value - rec.log_value)) <= 1e-10


def test_expected_hitting_examples(d3):
    assert an.expected_hitting(0, 1, d3).value == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert an.expected_hitting(0, 2, d3).value == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_expected_hitting_additivity_exact():
    d = _d(4)
    whole = an.expected_hitting(0, 3, d).log_value
    split = (an.expected_hitting(0, 2, d) + an.expected_hitting(2, 3, d)).log_value
    assert abs(whole - split) < 1e-12


def test_expected_hitting_monotonicity():
    d = _d(6, 1.2, 0.9)
    values = [an.expected_hitting(0, i, d).log_value for i in range(1, d.N + 1)]
    assert all(a < b for a, b in zip(values, values[1:]))
    starts = [an.expected_hitting(j, 10, d).log_value for j in range(0, 10)]
    assert all(a > b for a, b in zip(starts, starts[1:]))


def test_expected_hitting_rejects_bad_range(d3):
    with pytest.raises(ValueError):
        an.expected_hitting(2, 2, d3)
    with pytest.raises(ValueError):
        an.expected_hitting(3, 1, d3)


def test_oracle_examples(d3):
    assert an.expected_hitting_oracle(0, 2, d3) == pytest.approx(7.0 / 3.0, rel=1e-12)
    d2 = _d(2)
    assert an.expected_hitting_oracle(0, 1, d2) == pytest.approx(1.0, rel=1e-14)
    d4 = _d(4, 1.0, 2.0)
    rec = an.expected_hitting(1, 3, d4).value
    assert an.expected_hitting_oracle(1, 3, d4) == pytest.approx(rec, rel=1e-9)


def test_oracle_dimension_cap():
    d = _d(200)
    with pytest.raises(ValueError):
        an.expected_hitting_oracle(0, an.ORACLE_DIMENSION_CAP + 1, d)


# ------------------------------------------------------------ first-passage law


def test_hitting_time_law_one_step_is_exponential():
    # target 1: the only exit from 0 is the first insertion, at rate N beta/(n-1)
    d = _d(9, 1.0, 2.0)
    law = an.hitting_time_law(1, d)
    rate = d.N * d.beta / (d.n - 1)
    assert law.rates.tolist() == pytest.approx([rate], rel=1e-12)
    for x in (0.0, 0.01, 0.05, 0.3):
        assert law.survival(0, x) == pytest.approx(math.exp(-rate * x), rel=1e-12)


def test_hitting_time_law_matches_matrix_exponential():
    # P(tau_j(i) > x) is row j of exp(Q x) summed, with Q the generator killed at i
    from scipy.linalg import expm

    d = _d(10, 1.0, 1.5)
    i = 30
    k = np.arange(i)
    birth = (d.N - k) * d.beta / (d.n - 1)
    death = k * d.alpha
    q = np.diag(-(birth + death)) + np.diag(birth[:-1], 1) + np.diag(death[1:], -1)
    law = an.hitting_time_law(i, d)
    assert law.accepted.all()
    for x in (0.1, 1.0, 5.0, 40.0):
        exact = expm(q * x).sum(axis=1)
        spectral = np.array([law.survival(j, x) for j in range(i)])
        assert np.max(np.abs(spectral - exact)) < 1e-9


def test_hitting_time_law_gate_refuses_deep_starts():
    d = _d(200)
    law = an.hitting_time_law(128, d)
    assert not law.accepts(0)
    with pytest.raises(ValueError):
        law.survival(0, 1.0)
    assert all(law.accepts(j) for j in range(64, 128))
    assert not law.accepts(128) and not law.accepts(-1)
    for j in range(128):
        if law.accepts(j):
            assert abs(law.survival(j, 0.0) - 1.0) <= an.LAW_TOLERANCE
    # sum_k 1/rate_k is the mean passage time from 0
    assert float(np.sum(1.0 / law.rates)) == pytest.approx(
        an.expected_hitting(0, 128, d).value, rel=1e-9)


def test_hitting_time_law_solved_once_read_only():
    d = _d(60)
    law = an.hitting_time_law(40, d)
    assert an.hitting_time_law(40, _d(60)) is law
    with pytest.raises(ValueError):
        law.rates[0] = 1.0
    x = np.array([0.5, 2.0, 8.0])
    assert law.survival(30, x).tolist() == [law.survival(30, v) for v in x]
    with pytest.raises(ValueError):
        law.survival(30, -1.0)
    for bad in (0, d.N + 1):
        with pytest.raises(ValueError):
            an.hitting_time_law(bad, d)


def test_hitting_time_law_survival_of_one_time_is_its_entry_in_an_array():
    # each time's terms are summed on their own row, so a time reads the
    # same bits alone as inside any array of times
    law = an.hitting_time_law(32, _d(40))
    xs = np.linspace(0.0, 30.0, 255)
    for j in range(32):
        if law.accepts(j):
            assert law.survival(j, xs).tolist() == [law.survival(j, x) for x in xs.tolist()]


# ------------------------------------------------------------ passage sampler


def _uniform(seed, count):
    return iter(np.random.default_rng(seed).random(count).tolist()).__next__


def test_sample_passage_matches_the_law_at_accepted_starts():
    # by DKW each empirical CDF is within sqrt(log(2/a) / (2 reps)) of the
    # true one except with probability a
    from scipy.stats import kstest

    d = _d(40)
    law = an.hitting_time_law(32, d)
    reps = 5_000
    bound = math.sqrt(math.log(2 / 1e-3) / (2 * reps))
    for j in (0, 10, 20, 31):
        assert law.accepts(j)
        uniform = _uniform(j, reps * (32 + j))
        draws = [an.sample_passage(j, 32, d, uniform) for _ in range(reps)]
        assert kstest(draws, lambda x: 1.0 - law.survival(j, x)).statistic <= bound


def test_sample_passage_mean_at_a_start_the_gate_refuses():
    d = _d(200)
    assert not an.hitting_time_law(128, d).accepts(0)
    reps = 2_000
    uniform = _uniform(3, reps * 128)
    draws = np.array([an.sample_passage(0, 128, d, uniform) for _ in range(reps)])
    se = draws.std(ddof=1) / math.sqrt(reps)
    assert abs(draws.mean() - an.expected_hitting(0, 128, d).value) <= 5 * se


def test_rates_below_counts_the_spectrum_to_relative_precision():
    # against the dense solver where it resolves the rates, and at n=500,
    # j=400, around a smallest rate near 6e-17, far below its precision
    d = _d(200)
    for j in (1, 60, 127):
        rates = np.linalg.eigvalsh(an._symmetrised(*_kernel_rates(0, j, d)))
        x = np.sort(np.random.default_rng(j).uniform(0.0, 1.2 * rates[-1], 500))
        assert an._rates_below(j, d, x).tolist() == np.searchsorted(rates, x).tolist()
    d = _d(500)
    smallest = an._killed_rates(400, d)[0]
    assert smallest < 1e-15
    x = smallest * np.array([1.0 - 1e-9, 1.0 + 1e-9])
    assert an._rates_below(400, d, x).tolist() == [0, 1]


@pytest.mark.parametrize("n,i", [(40, 32), (200, 128)])
def test_killed_rates_interlace(n, i):
    # Cauchy: the rates killed at j < i sit at or above the first j killed at i
    d = _d(n)
    lam = an._killed_rates(i, d)
    for j in range(1, i):
        assert np.all(lam[:j] <= an._killed_rates(j, d) * (1.0 + 1e-12))


def test_sample_passage_reads_i_plus_j_uniforms():
    d = _d(40)
    reads = []
    an.sample_passage(10, 32, d, lambda: reads.append(1) or 0.5)
    assert len(reads) == 42
    for j, i in ((-1, 5), (5, 5), (0, d.N + 1)):
        with pytest.raises(ValueError):
            an.sample_passage(j, i, d, _uniform(0, 100))


@given(i=st.integers(1, 120), data=st.data())
@settings(max_examples=80, deadline=None)
def test_all_kept_sum_bounds_the_draw(i, data):
    # the draw sums the same array with some terms set to 0, so the sum
    # before thinning is at least the draw, in floating point too
    d = _d(40)
    j = data.draw(st.integers(0, i - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    terms, shifts = an._passage_terms(j, i, d, _uniform(seed, i + j))
    bound = float(terms.sum())
    draw = an._thinned_sum(j, d, terms, shifts)
    assert bound >= draw == an.sample_passage(j, i, d, _uniform(seed, i + j))


def test_thinning_selects_so_an_infinite_term_can_be_dropped():
    d = _d(40)  # one rate killed at 1, the birth rate 780/39 = 20
    assert an._thinned_sum(1, d, np.array([math.inf, 2.0]), np.array([21.0])) == 2.0
    assert an._thinned_sum(1, d, np.array([math.inf, 2.0]), np.array([19.0])) == math.inf


def test_hitting_time_law_past_double_range_builds_without_warning():
    # every mean passage up to 1163 at n=500 is past double range, the
    # smallest rate 0: the law builds (RuntimeWarning is an error here) and
    # its gate refuses every start
    law = an.hitting_time_law(1163, _d(500))
    assert law.rates[0] == 0.0
    assert not law.accepted.any()


def test_sample_passage_past_double_range_is_inf():
    # at n=500 the mean passage from 0 to 1163 is e^877.7: the smallest rate,
    # fixed in logs, underflows to 0, and every draw is inf
    d = _d(500)
    assert an._hitting_logs(d, 1163)[0] > 877.0
    assert an._killed_rates(1163, d)[0] == 0.0
    for j in (0, 25):
        assert an.sample_passage(j, 1163, d, _uniform(j, 1163 + j)) == math.inf
    # short of underflow it is the reciprocal of the mean, e^-723.2
    log_mean = an._hitting_logs(d, 1060)[0]
    assert log_mean > math.log(np.finfo(float).max)
    assert an._killed_rates(1060, d)[0] == pytest.approx(math.exp(-log_mean), rel=1e-9)


# ------------------------------------------------------------ fluid limit


def test_fluid_time_examples(d40):
    assert an.fluid_time(0.0, 0.25, d40) == pytest.approx(math.log(2.0), rel=1e-12)
    assert an.fluid_time(0.0, 0.3, d40) == pytest.approx(0.916290731874155, rel=1e-12)


def _exact_fluid_time(c_start, c_end, d):
    # the doubles' exact values through 800 digits: even a subnormal alpha
    # leaves the ratio distinct from 1
    with localcontext() as ctx:
        ctx.prec = 800
        c_start, c_end, alpha, beta = map(Decimal, (c_start, c_end, d.alpha, d.beta))
        ratio = (beta - 2 * alpha * c_end) / (beta - 2 * alpha * c_start)
        return float(-ratio.ln() / alpha)


@pytest.mark.parametrize("c_start,c_end,n,alpha", [
    (0.3 - 1e-9, 0.3, 40, 1.0),  # the ratio is 1 - 5e-9
    (0.0, 0.3, 10, 1e-12),  # the ratio is 1 - 6e-13
    (0.0, 0.3, 10, 1e-320),  # a subnormal step alpha q
    (0.0, 0.3, 10, 5e-324),  # a step alpha q that underflows to 0
    (0.6, 0.55, 10, 1.0),  # above the fixed point; the doubles' value is not log 2
    (0.0, 0.3, 100, 1.0),  # the README command, 0.916290731874155
])
def test_fluid_time_is_exact_when_the_ratio_is_near_one(c_start, c_end, n, alpha):
    d = _d(n, alpha)
    assert an.fluid_time(c_start, c_end, d) == pytest.approx(
        _exact_fluid_time(c_start, c_end, d), rel=1e-12, abs=0.0)


def test_fluid_time_continuity_at_coincidence(d40):
    # local slope of the flow time at c = 0.3 is 2/(beta - 2 alpha c) = 5
    for delta in (1e-3, 1e-6, 1e-9):
        assert an.fluid_time(0.3 - delta, 0.3, d40) < 6.0 * delta


def test_fluid_time_above_branch():
    d = _d(10, 1.0, 1.0)
    value = an.fluid_time(0.9, 0.6, d)  # both above beta/(2 alpha) = 0.5
    assert value == pytest.approx(-math.log((1.0 - 1.2) / (1.0 - 1.8)), rel=1e-12)


@pytest.mark.parametrize(
    "c_start,c_end",
    [(0.0, 0.5), (0.5, 0.6), (0.2, 0.8), (0.3, 0.2), (0.3, 0.3), (-0.1, 0.2)],
)
def test_fluid_time_rejects_singular_or_misordered(c_start, c_end, d40):
    with pytest.raises(ValueError):
        an.fluid_time(c_start, c_end, d40)


_FLOW_PARAMS = derive(ModelParams(40, 1.0, 1.0))


@given(
    lo=st.floats(0.0, 0.15),
    mid=st.floats(0.2, 0.3),
    hi=st.floats(0.35, 0.45),
)
@settings(max_examples=60, deadline=None)
def test_fluid_time_additivity(lo, mid, hi):
    total = an.fluid_time(lo, hi, _FLOW_PARAMS)
    split = an.fluid_time(lo, mid, _FLOW_PARAMS) + an.fluid_time(mid, hi, _FLOW_PARAMS)
    assert abs(total - split) < 1e-12


def test_fluid_trajectory_examples(d40):
    assert an.fluid_trajectory(0.0, 0.17, d40) == 0.17
    assert an.fluid_trajectory(80.0, 0.17, d40) == pytest.approx(0.5, rel=1e-12)
    assert an.fluid_trajectory(math.log(2.0), 0.0, d40) == pytest.approx(0.25, rel=1e-12)


def test_fluid_round_trip(d40):
    t = an.fluid_time(0.0, 0.3, d40)
    assert an.fluid_trajectory(t, 0.0, d40) == pytest.approx(0.3, rel=1e-12)


# ------------------------------------------------------------ entropy and tails


def test_relative_entropy_edge_cases():
    assert an.relative_entropy(0.0, 0.3) == pytest.approx(-math.log(0.7), rel=1e-14)
    assert an.relative_entropy(1.0, 0.3) == pytest.approx(-math.log(0.3), rel=1e-14)
    assert an.relative_entropy(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)
    assert an.relative_entropy(0.6, 0.3) > 0.0


def test_entropy_exponent_zero_at_fixed_point():
    d = _d(50, 1.0, 1.0)
    assert an.entropy_exponent(0.5, d).asymptotic == pytest.approx(0.0, abs=1e-12)


def test_entropy_exponent_derived_value(d40):
    ee = an.entropy_exponent(0.8, d40)
    assert ee.i == 32
    assert ee.asymptotic == pytest.approx(40.0 * (0.8 * math.log(1.6) - 0.3), rel=1e-12)
    assert ee.asymptotic == pytest.approx(3.0401161358635377, rel=1e-12)
    assert ee.exact == pytest.approx(d40.N * an.relative_entropy(32 / d40.N, d40.p), rel=1e-12)


def test_entropy_exponent_gap_bounded_in_n():
    # exact - asymptotic stays O(1) across a factor-8 sweep of n at fixed c
    gaps = []
    for n in (50, 100, 200, 400):
        ee = an.entropy_exponent(0.8, _d(n))
        gaps.append(ee.exact - ee.asymptotic)
    assert max(gaps) - min(gaps) < 0.5
    assert all(abs(g) < 2.0 for g in gaps)


def test_entropy_exponent_domain(d40):
    with pytest.raises(ValueError):
        an.entropy_exponent(0.0, d40)
    with pytest.raises(ValueError):
        an.entropy_exponent(40.0, d40)  # [c n] would reach N


def test_binomial_tail_trivia():
    d = _d(5, 1.0, 1.0)
    assert an.binomial_tail(0, d).probability == 1.0
    d2 = _d(2, 1.0, 1.0)  # N = 1
    assert an.binomial_tail(1, d2).probability == pytest.approx(d2.p, rel=1e-14)


def _decimal_log_tail(i, d):
    # every term of P(Bin(N, p) >= i) at the double p, summed in 50 digits
    with localcontext() as ctx:
        ctx.prec = 50
        p = Decimal(d.p)
        q = 1 - p
        term = math.comb(d.N, i) * p**i * q ** (d.N - i)
        total = Decimal(0)
        for k in range(i, d.N + 1):
            total += term
            term = term * (d.N - k) / (k + 1) * p / q
        return float(total.ln())


def test_binomial_tail_enumeration():
    # n=3 with beta = 2 alpha gives N=3, p=1/2; P(Bin >= 2) = 4/8
    d = _d(3, 1.0, 2.0)
    assert d.p == 0.5
    assert an.binomial_tail(2, d).probability == pytest.approx(0.5, rel=1e-13)
    for n, i in ((40, 32), (100, 80), (200, 100)):
        d = _d(n)
        got = an.binomial_tail(i, d).log_probability
        assert abs(got - _decimal_log_tail(i, d)) <= 1e-12


def test_binomial_tail_top_value():
    d = _d(6, 0.9, 1.7)
    assert an.binomial_tail(d.N, d).log_probability == pytest.approx(
        d.N * math.log(d.p), rel=1e-13
    )


def test_binomial_tail_monotone():
    d = _d(10, 1.0, 1.0)
    logs = [an.binomial_tail(i, d).log_probability for i in range(d.N + 1)]
    assert all(a >= b for a, b in zip(logs, logs[1:]))


def test_binomial_tail_bounds_contain_exact():
    d = _d(20, 1.0, 1.0)
    for i in range(d.N + 1):
        tail = an.binomial_tail(i, d)
        if tail.bounds_valid:
            assert tail.log_lower_bound - 1e-9 <= tail.log_probability
            assert tail.log_probability <= tail.log_upper_bound + 1e-9


@pytest.mark.parametrize("n,i", [(40, 32), (200, 100), (2000, 1600), (2000, 10), (2000, -1)])
def test_binomial_tail_drops_only_terms_that_underflow(n, i):
    # the sum stops 746 below the peak; the full sum of every term from i to N
    # has the same bits, because np.exp of each dropped term is 0.0
    d = _d(n)
    N, i = d.N, i % (d.N + 1)
    k = np.arange(i, N + 1)
    log_pmf = an._log_binomials(N, N)[i:] + k * math.log(d.p) + (N - k) * math.log1p(-d.p)
    peak = float(np.max(log_pmf))
    full = min(peak + math.log(math.fsum(np.exp(log_pmf[::-1] - peak).tolist())), 0.0)
    assert an.binomial_tail(i, d).log_probability == full


def test_cycle_expectation_examples():
    tail = LogNonNegative.from_linear
    assert an.cycle_expectation(0.05, tail(0.05)).value == pytest.approx(1.0, rel=1e-12)
    assert an.cycle_expectation(0.37, tail(1.0)).value == pytest.approx(0.37, rel=1e-12)
    got = an.cycle_expectation(0.05, tail(math.exp(-3.04))).value
    assert got == pytest.approx(0.05 * math.exp(3.04), rel=1e-12)
    assert an.cycle_expectation(0.0, tail(0.05)).log_value == -math.inf
    with pytest.raises(ValueError):
        an.cycle_expectation(0.05, tail(0.0))


def test_cycle_expectation_log_tail():
    tail = LogNonNegative(-5000.0)
    est = an.cycle_expectation(2.0, tail)
    assert est.log_value == pytest.approx(math.log(2.0) + 5000.0, rel=1e-12)


# ------------------------------------------------------------ rate exponents


def test_c_epsilon_values():
    assert an.c_epsilon(0.5) == pytest.approx(math.log(2.0), rel=1e-14)
    assert an.c_epsilon(0.9) == pytest.approx(1.2792139405522476, rel=1e-12)
    assert an.c_epsilon(1e-9) == pytest.approx(0.5, rel=1e-8)
    assert an.c_epsilon(0.3) > 0.5
    with pytest.raises(ValueError):
        an.c_epsilon(0.0)
    with pytest.raises(ValueError):
        an.c_epsilon(1.0)


def test_rate_functions_frozen_half():
    # independent evaluation: plain log/exp arithmetic, no expm1/log1p route
    ce = -math.log(1.0 - 0.5) / 1.0
    k_direct = ce * math.log(2.0 * ce) + 0.5 - ce
    i1_direct = (
        -0.5 * math.log(1.0 - math.exp(-0.5))
        + 0.5 * math.log(0.5)
        + 0.5 * math.log(0.5)
        + 0.25
    )
    r = an.rate_functions(0.5)
    assert r.k == pytest.approx(k_direct, rel=1e-12)
    assert r.i1 == pytest.approx(i1_direct, rel=1e-12)
    # 50-digit reference values
    assert r.k == pytest.approx(0.033258435818284337, rel=1e-12)
    assert r.i1 == pytest.approx(0.023228884223648977, rel=1e-12)


def test_rate_functions_small_eps_slopes():
    for eps in (0.01, 0.005):
        r = an.rate_functions(eps)
        approx = an.rate_functions_small_eps(eps)
        assert r.k / approx.k == pytest.approx(1.0, abs=0.1)
        assert r.i1 / approx.i1 == pytest.approx(1.0, abs=0.1)


def test_rate_functions_edge_route_dominates():
    for k in range(1, 80):
        eps = round(0.01 * k, 2)
        r = an.rate_functions(eps)
        assert r.k > r.i1


def test_rate_functions_domain():
    with pytest.raises(ValueError):
        an.rate_functions(0.85)  # c_eps >= 1, edge-route exponent undefined
    with pytest.raises(ValueError):
        an.rate_functions(1.2)


# ------------------------------------------------------------ input checks


@pytest.mark.parametrize("call,message", [
    (lambda d: an.stationary_probability(2, d), "edge states must be 0 or 1"),
    (lambda d: an.expected_hitting_step_series(d.N, d), r"step start must be in \[0, 2\]"),
    (lambda d: an.expected_hitting_oracle(2, 2, d), "need 0 <= j < i <= 3"),
    (lambda d: an.fluid_trajectory(1.0, -0.1, d), "c_start must be a finite nonnegative"),
    (lambda d: an.relative_entropy(1.5, 0.3), r"a must be in \[0, 1\]"),
    (lambda d: an.relative_entropy(0.5, 1.0), r"p must be in \(0, 1\)"),
    (lambda d: an.binomial_tail(d.N + 1, d), r"count must be in \[0, 3\]"),
    (lambda d: an.cycle_expectation(-1.0, LogNonNegative(-1.0)), "time_above must be nonneg"),
    (lambda d: an.cycle_expectation(1.0, LogNonNegative(0.1)), "tail must be a probability"),
    (lambda d: an.rate_functions_small_eps(0.0), r"eps must be in \(0, 1\)"),
], ids=["stationary-state", "series-start", "oracle-range", "trajectory-start",
        "entropy-a", "entropy-p", "tail-count", "cycle-time", "cycle-tail", "small-eps"])
def test_input_checks_raise(call, message, d3):
    with pytest.raises(ValueError, match=message):
        call(d3)
