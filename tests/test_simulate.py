import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyner import analytic as an
from dyner import simulate as sim
from dyner.model import ModelParams, derive
from dyner.stats import ks_distance, mean_ci, chi_square_pvalue


def _d(n, alpha=1.0, beta=1.0):
    return derive(ModelParams(n, alpha, beta))


def _two_sample_ks(xs, ys):
    xs = np.sort(xs)
    ys = np.sort(ys)
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / len(xs)
    fy = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(fx - fy)))


# ------------------------------------------------------------ trajectories


@given(seed=st.integers(0, 2**63 - 1))
@settings(max_examples=25, deadline=None)
def test_trajectory_structure(seed):
    d = _d(6)
    path = sim.simulate_trajectory(d, 2, 3.0, seed)
    times = [t for t, _ in path.events]
    counts = [k for _, k in path.events]
    assert path.events[0] == (0.0, 2)
    assert all(a < b for a, b in zip(times, times[1:]))
    assert all(abs(b - a) == 1 for a, b in zip(counts, counts[1:]))
    assert all(0 <= k <= d.N for k in counts)
    assert times[-1] <= 3.0


def test_trajectory_deterministic():
    d = _d(8)
    a = sim.simulate_trajectory(d, 0, 2.0, 42)
    b = sim.simulate_trajectory(d, 0, 2.0, 42)
    c = sim.simulate_trajectory(d, 0, 2.0, 42, replica=1)
    assert a.events == b.events
    assert a.events != c.events


def test_trajectory_count_at():
    d = _d(5)
    path = sim.simulate_trajectory(d, 0, 1.5, 7)
    assert path.count_at(0.0) == 0
    assert path.count_at(1.5) == path.events[-1][1]
    with pytest.raises(ValueError):
        path.count_at(2.0)


def test_trajectory_first_event_mean():
    # first holding time at 0 is Exp(lambda_0) with lambda_0 = beta N/(n-1)
    d = _d(6)
    rate = d.N * d.beta / (d.n - 1)
    firsts = []
    for r in range(20_000):
        path = sim.simulate_trajectory(d, 0, 3.0, 101, replica=r)
        if len(path.events) > 1:
            firsts.append(path.events[1][0])
    mean = float(np.mean(firsts))
    se = float(np.std(firsts, ddof=1)) / math.sqrt(len(firsts))
    assert abs(mean - 1.0 / rate) < 3 * se


def test_two_state_occupation_fraction():
    # n=2: single on-off edge; long-run fraction of time present -> p = 1/2
    d = _d(2)
    path = sim.simulate_trajectory(d, 0, 2000.0, 5)
    events = list(path.events) + [(2000.0, path.events[-1][1])]
    present = sum(
        t2 - t1 for (t1, k), (t2, _) in zip(events, events[1:]) if k == 1
    )
    assert present / 2000.0 == pytest.approx(d.p, abs=0.03)


def test_stationary_marginal_chi_square():
    # start from Binomial(N, p); the marginal at any t stays Binomial(N, p)
    d = _d(5)
    t_probe = 0.5
    counts = np.zeros(d.N + 1, dtype=int)
    for r in range(10_000):
        start = int(sim.replica_rng(999, r).binomial(d.N, d.p))
        path = sim.simulate_trajectory(d, start, t_probe, 1000, replica=r)
        counts[path.events[-1][1]] += 1
    log_pmf = [
        math.lgamma(d.N + 1)
        - math.lgamma(k + 1)
        - math.lgamma(d.N - k + 1)
        + k * math.log(d.p)
        + (d.N - k) * math.log(d.q)
        for k in range(d.N + 1)
    ]
    pmf = np.exp(log_pmf)
    # pool the upper tail so expected counts stay above 5
    cut = 6
    observed = np.concatenate([counts[:cut], [counts[cut:].sum()]])
    probs = np.concatenate([pmf[:cut], [pmf[cut:].sum()]])
    assert chi_square_pvalue(observed, probs=probs) > 0.001


def test_fluid_limit_trajectory_means():
    d = _d(2000)
    probes = (0.25, 0.5, 1.0)
    sums = {t: 0.0 for t in probes}
    replicas = 40
    for r in range(replicas):
        path = sim.simulate_trajectory(d, 0, 1.0, 314, replica=r)
        for t in probes:
            sums[t] += path.count_at(t) / d.n
    for t in probes:
        assert sums[t] / replicas == pytest.approx(
            an.fluid_trajectory(t, 0.0, d), abs=0.01
        )


# ------------------------------------------------------------ hitting times


def test_hitting_single_edge_is_exponential():
    d = _d(2)
    samples = sim.sample_hitting_times(d, 0, 1, 10_000, seed=21)
    times = [s.time for s in samples]
    assert not any(s.censored for s in samples)
    assert ks_distance(times, lambda x: -math.expm1(-x)) <= 0.02


def test_hitting_mean_matches_recursion():
    d = _d(20)
    samples = sim.sample_hitting_times(d, 0, 6, 4000, seed=22)
    times = np.array([s.time for s in samples])
    se = times.std(ddof=1) / math.sqrt(len(times))
    assert abs(times.mean() - an.expected_hitting(0, 6, d).value) < 3 * se


def test_hitting_near_top_finishes():
    d = _d(3)
    samples = sim.sample_hitting_times(d, d.N - 1, d.N, 200, seed=23)
    assert not any(s.censored for s in samples)
    assert all(s.time > 0 for s in samples)


def test_hitting_censoring_flagged():
    d = _d(30)
    sample = sim.sample_hitting_time(d, 0, d.N, seed=24, cap=0.001)
    assert sample.censored
    assert sample.time == sample.cap == 0.001


def test_hitting_validation():
    d = _d(4)
    with pytest.raises(ValueError):
        sim.sample_hitting_time(d, 3, 3, seed=1)
    with pytest.raises(ValueError):
        sim.sample_hitting_time(d, 0, d.N + 1, seed=1)
    with pytest.raises(ValueError):
        sim.sample_hitting_time(d, 0, 1, seed=1, cap=-2.0)


def test_default_cap_scale():
    d = _d(12)
    assert sim.default_hitting_cap(d) == pytest.approx(
        1e4 * an.expected_stationarity_time(d), rel=1e-12
    )


# ------------------------------------------------------------ stationarity times


def test_stationarity_single_pair_inverse_transform():
    d = _d(2)
    times = sim.sample_stationarity_times(d, 4000, seed=31)
    assert ks_distance(times, lambda t: -math.expm1(-d.update_rate * t)) <= 0.03


def test_stationarity_matches_exact_cdf():
    d = _d(10)
    times = sim.sample_stationarity_times(d, 4000, seed=32)
    assert ks_distance(times, lambda t: an.stationarity_cdf(t, d)) <= 0.03


def test_stationarity_mean_matches_harmonic_sum():
    d = _d(10)
    times = np.array(sim.sample_stationarity_times(d, 4000, seed=33))
    se = times.std(ddof=1) / math.sqrt(len(times))
    assert abs(times.mean() - an.expected_stationarity_time(d)) < 3 * se


def test_stationarity_agrees_with_direct_max_construction():
    # cross-check of the closed-form inverse against max of N explicit clocks
    d = _d(5)
    inverse = sim.sample_stationarity_times(d, 3000, seed=34)
    rng = np.random.default_rng(35)
    direct = rng.exponential(1.0 / d.update_rate, size=(3000, d.N)).max(axis=1)
    assert _two_sample_ks(inverse, direct) <= 0.045


# ------------------------------------------------------------ cycles and renewal


def test_time_above_contains_first_holding():
    d = _d(40)
    cycles = [sim.sample_time_above(d, 32, 20, seed=41, replica=r) for r in range(300)]
    mean_holding = an.holding_mean(32, d)
    mean_above = float(np.mean([c.time_above for c in cycles]))
    assert all(c.time_above > 0 for c in cycles)
    assert mean_holding <= mean_above <= 50.0 * mean_holding


def test_time_above_adjacent_levels_terminates():
    d = _d(10)
    cycle = sim.sample_time_above(d, 6, 5, seed=42)
    assert cycle.time_above > 0


def test_renewal_consistent_with_direct_mc():
    d = _d(30)
    est = sim.estimate_hitting_renewal(d, 0.8, 400, seed=43)
    direct = mean_ci(
        [s.time for s in sim.sample_hitting_times(d, 0, est.i, 500, seed=44)]
    )
    renewal_low = est.estimate.value - est.half_width.value
    renewal_high = est.estimate.value + est.half_width.value
    assert max(renewal_low, direct.low) <= min(renewal_high, direct.high)


def test_renewal_targets_and_validation():
    d = _d(40)
    assert sim.renewal_targets(d, 0.8) == (32, 20)
    with pytest.raises(ValueError):
        sim.renewal_targets(d, 0.5)
    with pytest.raises(ValueError):
        sim.estimate_hitting_renewal(d, 0.8, 50, seed=1)


# ------------------------------------------------------------ escape probability


def _escape_oracle(d, j, i, s):
    # absorbing-chain solve: h_k = P(hit i before s | start k)
    size = i - s + 1
    a = np.zeros((size, size))
    b = np.zeros(size)
    a[0, 0] = 1.0  # state s
    a[-1, -1] = 1.0
    b[-1] = 1.0  # state i
    for idx in range(1, size - 1):
        k = s + idx
        lam = (d.N - k) * d.beta / (d.n - 1)
        mu = k * d.alpha
        tot = lam + mu
        a[idx, idx] = 1.0
        a[idx, idx + 1] = -lam / tot
        a[idx, idx - 1] = -mu / tot
    return float(np.linalg.solve(a, b)[j - s])


def test_escape_one_step_exact():
    # n=3, s=0, j=1, i=2: single jump decides; p(1,2) = 1/2 exactly
    d = _d(3)
    assert _escape_oracle(d, 1, 2, 0) == pytest.approx(0.5, rel=1e-12)
    est = sim.sample_escape_probability(d, 1, 2, 0, 4000, seed=51)
    three_se = 3.0 * est.half_width / 1.96
    assert abs(est.mean - 0.5) <= three_se


def test_escape_matches_absorbing_chain():
    d = _d(8)
    exact = _escape_oracle(d, 4, 6, 2)
    est = sim.sample_escape_probability(d, 4, 6, 2, 5000, seed=52)
    three_se = 3.0 * est.half_width / 1.96
    assert abs(est.mean - exact) <= three_se


def test_escape_decreases_with_n():
    estimates = []
    for n in (20, 40):
        d = _d(n)
        est = sim.sample_escape_probability(
            d, round(0.7 * n), round(0.9 * n), n // 2, 1500, seed=53
        )
        estimates.append(est)
    assert estimates[0].mean > estimates[1].mean
    assert not estimates[0].overlaps(estimates[1])


def test_return_floor_from_below_target():
    # starting one below the target, falling to the floor keeps positive odds
    for n in (20, 40):
        d = _d(n)
        i, s = round(0.9 * n), n // 2
        est = sim.sample_escape_probability(d, i - 1, i, s, 800, seed=54)
        assert 1.0 - est.mean >= 0.01


def test_escape_validation():
    d = _d(10)
    with pytest.raises(ValueError):
        sim.sample_escape_probability(d, 5, 4, 2, 100, seed=1)
    with pytest.raises(ValueError):
        sim.sample_escape_probability(d, 2, 5, 2, 100, seed=1)


# ------------------------------------------------------------ replica plumbing


def test_run_replicas_worker_independent():
    d = _d(12)
    serial = sim.sample_hitting_times(d, 0, 8, 60, seed=61, workers=1)
    parallel = sim.sample_hitting_times(d, 0, 8, 60, seed=61, workers=3)
    assert serial == parallel


def test_replica_rng_rejects_seeds_outside_64_bits():
    for seed in (-5, -1, 2**64, 2**64 + 3):
        with pytest.raises(ValueError):
            sim.replica_rng(seed)
    for seed in (0, 2**64 - 1):
        sim.replica_rng(seed, replica=3).random()


def test_replica_streams_differ():
    d = _d(12)
    samples = sim.sample_hitting_times(d, 0, 8, 50, seed=62)
    assert len({s.time for s in samples}) == 50
