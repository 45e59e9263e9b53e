import concurrent.futures
import contextlib
import ctypes
import itertools
import math
import multiprocessing
import os
import random
import shutil
import sys
import types
from concurrent.futures import Future, ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp

from dyner import analytic as an
from dyner import components as comp
from dyner import simulate as sim
from dyner.model import ModelParams, _kernel_rates, derive
from dyner.stats import ks_distance, mean_ci


def _d(n, alpha=1.0, beta=1.0):
    return derive(ModelParams(n, alpha, beta))


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
    # at an event time the count is the one that event set
    assert len(path.events) > 2
    assert all(path.count_at(t) == k for t, k in path.events)
    for t in (2.0, -0.5, math.nan):
        with pytest.raises(ValueError):
            path.count_at(t)


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
def test_trajectory_needs_finite_positive_horizon(horizon):
    # an infinite horizon used to run until killed, growing the path without bound
    with pytest.raises(ValueError):
        sim.simulate_trajectory(_d(6), 0, horizon, 1)


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
    assert chisquare(observed, observed.sum() * probs).pvalue > 0.001


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
    assert sample.time == 0.001


@pytest.mark.parametrize("start", [16, 31])
def test_hitting_time_law_matches_censored_fraction(start):
    # at cap = E(tau_j(i)) the event loop's censored share estimates the
    # spectral survival function at that time
    d = _d(40)
    i = 32
    cap = an.expected_hitting(start, i, d).value
    reps = 2000
    samples = sim.sample_hitting_times(d, start, i, reps, seed=140 + start, cap=cap)
    censored = sum(s.censored for s in samples) / reps
    exact = an.hitting_time_law(i, d).survival(start, cap)
    assert abs(censored - exact) <= 5 * math.sqrt(exact * (1 - exact) / reps)


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
    assert ks_2samp(inverse, direct).statistic <= 0.045


# ------------------------------------------------------------ cycles and renewal


def test_time_above_contains_first_holding():
    d = _d(40)
    cycles = [sim.sample_time_above(d, 32, 20, seed=41, replica=r) for r in range(300)]
    mean_holding = an.holding_mean(32, d)
    mean_above = float(np.mean(cycles))
    assert all(above > 0 for above in cycles)
    assert mean_holding <= mean_above <= 50.0 * mean_holding


def test_time_above_adjacent_levels_terminates():
    d = _d(10)
    assert sim.sample_time_above(d, 6, 5, seed=42) > 0


def test_renewal_consistent_with_direct_mc():
    d = _d(30)
    est = sim.estimate_hitting_renewal(d, 0.8, 400, seed=43)
    assert est.cycles == tuple(sim.sample_time_above(d, est.i, est.s, 43, replica=r)
                               for r in range(400))
    assert est.time_above.count == len(est.cycles)
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


@pytest.mark.parametrize("n, alpha, beta, j, i, s", [
    (3, 1.0, 1.0, 1, 2, 0), (8, 1.0, 1.0, 4, 6, 2), (20, 1.0, 1.0, 14, 18, 10),
    (40, 1.0, 1.0, 28, 36, 20), (12, 0.3, 5.0, 40, 60, 30), (10, 1e3, 1e-3, 3, 5, 1),
    (10, 1e-3, 1e3, 30, 44, 29),
])
def test_exact_escape_matches_absorbing_chain(n, alpha, beta, j, i, s):
    d = _d(n, alpha=alpha, beta=beta)
    exact = an.escape_probability(j, i, s, d)
    assert exact.value == pytest.approx(_escape_oracle(d, j, i, s), rel=1e-9)
    for bad in ((i, i, s), (s, i, s), (j, d.N + 1, s), (j, i, -1)):
        with pytest.raises(ValueError):
            an.escape_probability(*bad, d)


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


@pytest.mark.parametrize("call,message", [
    (lambda d: sim.simulate_trajectory(d, d.N + 1, 1.0, seed=1), r"must be in \[0, 45\]"),
    (lambda d: sim.sample_time_above(d, 3, 3, seed=1), "need 0 <= s < i"),
    (lambda d: sim.renewal_targets(d, 5.0), r"\[c n\] = 50 exceeds the pair count 45"),
    (lambda d: sim.renewal_targets(d, 0.52), r"\[c n\] = 5 must exceed s"),
    (lambda d: sim.sample_escape_probability(d, 4, 6, 2, 1, seed=1), "at least 2 replicas"),
], ids=["trajectory-start", "time-above-floor", "renewal-above-N", "renewal-at-s",
        "escape-one-replica"])
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call(_d(10))


# ------------------------------------------------------------ replica plumbing


def test_run_replicas_worker_independent():
    d = _d(12)
    serial = sim.sample_hitting_times(d, 0, 8, 60, seed=61, workers=1)
    parallel = sim.sample_hitting_times(d, 0, 8, 60, seed=61, workers=3)
    assert serial == parallel


@pytest.mark.parametrize("walk", ["compiled", "python"])
def test_count_chain_samplers_give_one_list_at_any_worker_count(walk):
    # each chunk of replicas is one call of the sampler's chunk form, on
    # either kernel, so neither the worker count nor the kernel moves a value
    if walk not in _walks():
        pytest.skip("the compiled run cannot be built here")
    d = _d(40)

    def samples(workers):
        return (sim.sample_escapes(d, 28, 36, 20, 300, seed=12, workers=workers),
                sim.sample_hitting_times(d, 0, 32, 150, seed=12, workers=workers),
                list(sim.estimate_hitting_renewal(d, 0.8, 150, seed=12, workers=workers).cycles))

    want = samples(1)
    assert want == tuple(
        [fn(*args, replica=r) for r in range(replicas)] for fn, args, replicas in (
            (sim._escaped, (d, 28, 36, 20, 12), 300),
            (sim.sample_hitting_time, (d, 0, 32, 12), 150),
            (sim.sample_time_above, (d, 32, 20, 12), 150)))
    with _kernel(walk):
        assert samples(1) == want
        assert samples(2) == want


def test_run_replicas_rejects_non_positive_workers():
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers must be positive"):
            sim.run_replicas(sim.sample_stationarity_time, (_d(6), 1), 4, workers)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: runs each task at submit, records
    max_workers and the start method."""

    sizes = []
    methods = []

    def __init__(self, max_workers, mp_context):
        self.sizes.append(max_workers)
        self.methods.append(mp_context.get_start_method())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


# replica 0 runs in the caller, so the chunks cover replicas 1..replicas-1,
# and a lone replica left runs there too
@pytest.mark.parametrize("replicas,workers,processes", [(2, 16, 0), (5, 4, 4), (6, 4, 3)])
def test_run_replicas_starts_one_process_per_chunk(monkeypatch, replicas, workers, processes):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 16)
    args = (_d(6), 5)
    got = sim.run_replicas(sim.sample_stationarity_time, args, replicas, workers)
    assert _RecordingPool.sizes == ([processes] if processes else [])
    assert got == [sim.sample_stationarity_time(*args, replica=r) for r in range(replicas)]


def _replica_index(replica):
    return replica


def test_run_replicas_caps_processes_at_cpu_count(monkeypatch):
    # no process is started: the recording pool runs each chunk in place
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
    assert sim.run_replicas(_replica_index, (), 10_000, 10_000) == list(range(10_000))
    assert _RecordingPool.sizes == [4]


def test_run_replicas_forks_on_linux(monkeypatch):
    # the workers inherit the caches replica 0 filled only from a forked parent
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "methods", [])
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    assert sim.run_replicas(_replica_index, (), 5, 2) == list(range(5))
    expected = "fork" if sys.platform == "linux" else multiprocessing.get_start_method()
    assert _RecordingPool.methods == [expected]


def test_replica_rng_rejects_seeds_outside_64_bits():
    for seed in (-5, -1, 2**64, 2**64 + 3):
        with pytest.raises(ValueError):
            sim.replica_rng(seed)
    for seed in (0, 2**64 - 1):
        sim.replica_rng(seed, replica=3).random()


def test_replica_rng_rejects_negative_replicas():
    for replica in (-1, -8, -(2**40)):
        with pytest.raises(ValueError, match="replica must be a non-negative integer"):
            sim.replica_rng(5, replica)


def _seed_sequence_draws(seed, replica):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replica,))).random(4)


def test_replica_rng_takes_integers_only():
    for bad in (1.7, 2.0):
        with pytest.raises(TypeError):
            sim.replica_rng(bad, 0)
        with pytest.raises(TypeError):
            sim.replica_rng(1, bad)
    for seed, replica in ((np.int64(7), np.uint32(3)), (np.uint64(2**64 - 1), np.int8(70))):
        got = sim.replica_rng(seed, replica).random(4)
        assert np.array_equal(got, sim.replica_rng(int(seed), int(replica)).random(4))


def _assert_streams_are_seed_sequences(pairs):
    for seed, replica in pairs:
        got = sim.replica_rng(seed, replica).random(4)
        assert np.array_equal(got, _seed_sequence_draws(seed, replica)), (seed, replica)


_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1,
          *(random.Random(bits).getrandbits(bits) for bits in (8, 33, 64))]


@pytest.mark.parametrize("seed", _SEEDS)
def test_replica_rng_is_seed_sequence_in_order(seed):
    # aligned blocks of 64 keys: replicas 0..2100 cross 32 block edges (63/64, ...)
    _assert_streams_are_seed_sequences((seed, r) for r in range(2100))


def test_replica_rng_is_seed_sequence_in_any_order():
    rand = random.Random(4)
    edges = [0, 7, 8, 23, 24, 55, 56, 63, 64, 119, 120, 2**32 - 65, 2**32 - 64, 2**32 - 9,
             2**32 - 2, 2**32 - 1, 2**32, 2**32 + 5, *(rand.getrandbits(31) for _ in range(20))]
    shuffled = list(range(300))
    rand.shuffle(shuffled)
    for seed in _SEEDS:
        _assert_streams_are_seed_sequences((seed, r) for r in edges)
        _assert_streams_are_seed_sequences((seed, r) for r in range(300, -1, -1))
        _assert_streams_are_seed_sequences((seed, r) for r in shuffled)
    # two seeds replica by replica: each keeps its own block
    _assert_streams_are_seed_sequences(
        (seed, r) for r in range(200) for seed in (_SEEDS[5], _SEEDS[7]))
    _assert_streams_are_seed_sequences(
        (seed, r) for r in range(200) for seed in (2**32 + 3, 3))


def test_replica_streams_differ():
    d = _d(12)
    samples = sim.sample_hitting_times(d, 0, 8, 50, seed=62)
    assert len({s.time for s in samples}) == 50


# ------------------------------------------------------------ kernel against the scalar loop


def _blocks():
    # the sizes of a run's blocks of events: 128 doubling up to 2048
    size = 128
    while True:
        yield size
        size = min(2 * size, 2048)


def _exponential_draws(seed, replica):
    # the kernel's stream layout: per block of B events (128 doubling up to
    # 2048), B direction uniforms and then B Exp(1) holding-time variates
    rng = sim.replica_rng(seed, replica)
    for size in _blocks():
        u = rng.random(size).tolist()
        x = rng.standard_exponential(size).tolist()
        yield from zip(u, x)


def _inverted_draws(seed, replica):
    # the kernel's former layout, kept as a law reference: uniform 2e gives
    # the Exp(1) variate -log(1 - u) by math.log, uniform 2e+1 the direction
    rng = sim.replica_rng(seed, replica)
    while True:
        u = rng.random(4096).tolist()
        for a, b in zip(u[0::2], u[1::2]):
            yield b, -math.log(1.0 - a)


def _reference_chain(d, k, draws, lower=-1, upper=-1, horizon=math.inf, level=None,
                     path=None):
    # the one-event-at-a-time loop that _run_chain replaced, kept as its oracle;
    # `draws` yields a (direction uniform, Exp(1) variate) pair per event
    n, alpha, N = d.n, d.alpha, d.N
    birth_scale = d.beta / (n - 1)
    if level is None:
        level = N + 1
    t = 0.0
    above = 0.0
    for v, x in draws:
        lam = (N - k) * birth_scale
        tot = lam + k * alpha
        dt = x / tot
        t += dt
        if t > horizon:
            return k, horizon, above
        if k >= level:
            above += dt
        k = k + 1 if v < lam / tot else k - 1
        if path is not None:
            path.append((t, k))
        if k == lower or k == upper:
            return k, t, above


_KERNEL_CASES = {
    # name: (n, beta, start, stop rule)
    "upper_with_cap": (40, 1.0, 0, dict(upper=32, horizon=60.0)),
    "escape": (40, 1.0, 28, dict(lower=20, upper=36)),
    # untimed runs draw the Exp(1) variates too, so blocks after the first
    # hold the same directions as in a timed run
    "long_escape": (40, 1.0, 20, dict(lower=10, upper=30)),
    "cycle": (40, 1.0, 32, dict(lower=20, level=32)),
    "horizon_with_level": (40, 1.0, 25, dict(upper=29, horizon=3.0, level=22)),
    "long_path": (2000, 1.0, 0, dict(horizon=2.0, path=True)),
    "dense": (30, 200.0, 0, dict(upper=392, horizon=2.0, level=375, path=True)),
    "next_to_lower": (10, 1.0, 6, dict(lower=5, upper=9)),
    "next_to_upper": (10, 1.0, 8, dict(lower=5, upper=9)),
    "next_to_top": (6, 200.0, 14, dict(upper=15)),
    "empty_start": (2, 1.0, 0, dict(upper=1)),
    # extreme rate ratios
    "slow_deaths": (40, 1.0, 0, dict(upper=600, horizon=60.0, level=580, alpha=1e-3)),
    "fast_deaths": (40, 1.0, 30, dict(lower=0, upper=31, level=10, alpha=1e3)),
    # starts on both sides of multiples of the block sizes, walking over
    # several blocks
    "window_edge_127": (2000, 1.0, 127, dict(horizon=0.5)),
    "window_edge_128": (2000, 1.0, 128, dict(horizon=0.5)),
    "window_edge_383": (2000, 1.0, 383, dict(horizon=0.5)),
    "window_edge_384": (2000, 1.0, 384, dict(horizon=0.5)),
    # sits at the top count N = 6, where the window is clipped at N + 1
    "dense_top": (4, 200.0, 0, dict(horizon=2.0)),
    # absorbed on the last event of a block (events 128 and 384, caught
    # after the block) and on the first event of the next (129 and 385,
    # caught in the walk), at each stop; `events` maps replica to run length
    "absorb_on_block_end": (40, 1.0, 20, dict(lower=10, upper=30, seed=905,
                                              events={23: 128, 180: 128, 725: 384, 1228: 384})),
    "absorb_after_block_end": (40, 1.0, 21, dict(lower=10, upper=30, seed=905,
                                                 events={221: 129, 1527: 129, 1856: 385,
                                                         2853: 385})),
    # the horizon is passed in one block and the stop would be reached in a
    # later block: the horizon ends the run in the block that passes it;
    # `events` maps replica to (run length, walk length to the stop)
    "horizon_before_later_stop": (40, 1.0, 20, dict(upper=30, horizon=4.0, seed=905,
                                                    events={77: (123, 450), 0: (166, 446),
                                                            3: (136, 1520), 4: (138, 934)})),
    # an untimed level run over several blocks, each timed for the level:
    # blocks 1-5 hold events 1-3968 and each later one 2048, so these runs
    # take 6, 6, 7 and 8 blocks, and each spends time above the level in
    # every block
    "long_cycle": (40, 1.0, 32, dict(lower=9, level=22, seed=905,
                                     events={156: 4061, 19: 5283, 67: 6139, 245: 8145})),
    # the horizon is passed on the last event of a block (events 128 and
    # 384: runs of 127 and 383 events) and on the first event of the next
    # (129 and 385); `events` maps replica to run length
    "horizon_on_block_end_128": (40, 1.0, 20, dict(horizon=3.3, level=20, path=True,
                                                   seed=905, events={80: 127, 182: 127})),
    "horizon_on_block_start_129": (40, 1.0, 20, dict(horizon=3.3, level=20, path=True,
                                                     seed=905, events={5: 128, 8: 128})),
    "horizon_on_block_end_384": (40, 1.0, 20, dict(horizon=9.8, level=20, path=True,
                                                   seed=905, events={19: 383, 72: 383})),
    "horizon_on_block_start_385": (40, 1.0, 20, dict(horizon=9.8, level=20, path=True,
                                                     seed=905, events={1: 384, 119: 384})),
    # counts past 2^31 (N = 2,449,965,000) and a level far below the window:
    # the kernel's C arguments are window indices, never counts
    "counts_past_32_bits": (70000, 1.0, 2_200_000_000, dict(horizon=1e-6, level=0, path=True)),
    # stops and a level outside [0, N] = [0, 45] act as none and as level 0
    "stops_outside_the_counts": (10, 1.0, 3, dict(lower=-4, upper=60, horizon=20.0, level=-9,
                                                  path=True)),
}


# The kernel runs in one C call where `_compiled_walk` builds it, and the
# tests below without "python_walk" in their names run that kernel; the
# others force the Python block loop, its reference.
_WALKS = ["compiled", "python"]


def _python_walk():
    return mock.patch.object(sim, "_compiled_walk", lambda source, *link: None)


def _walks():
    # both kernels, or the Python loop alone where the run cannot be built:
    # where no C compiler is on PATH, or where numpy's random archive is
    # missing, when the component passage, which links nothing, still builds
    if sim._compiled_walk(sim._RUN_SOURCE, sim._NPYRANDOM) is None:
        if shutil.which("cc") is not None:
            assert not os.path.exists(sim._NPYRANDOM), "the compiled run did not load"
            assert sim._compiled_walk(comp._PASSAGE_SOURCE) is not None
        return ["python"]
    return _WALKS


def _kernel(name):
    # runs `_run_chain` on the named kernel
    return _python_walk() if name == "python" else contextlib.nullcontext()


def _recording(built, fn):
    def record(*args):
        built.append(fn(*args))
        return built[-1]
    return record


@contextlib.contextmanager
def _stream_end():
    # yields a list that, after one `_run_chain` inside the block, holds a
    # Generator at the place in the stream where the run left it: on the
    # compiled path one with the PCG64 (state, inc) that the run leaves in
    # its struct run, on the Python path the Generator `_run_blocks` drew from
    structs, generators, end = [], [], []
    with mock.patch.object(sim, "_run_state", wraps=_recording(structs, sim._run_state)), \
            mock.patch.object(sim, "_key_generator",
                              wraps=_recording(generators, sim._key_generator)):
        yield end
    assert len(structs) + len(generators) == 1
    if generators:
        end.append(generators[0])
        return
    offset = sim._run_types()[0].size - 32
    end.append(_generator_at(bytes(structs[0])[offset:]))


def _generator_at(raw):
    # the Generator at the PCG64 (state, inc) bytes of a struct run's stream
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(raw[:16], sys.byteorder),
                  "inc": int.from_bytes(raw[16:], sys.byteorder)},
        "has_uint32": 0, "uinteger": 0}
    return rng


def _block_of(event):
    # (first event, size) of the block that holds event index `event`
    first = 0
    for size in _blocks():
        if event < first + size:
            return first, size
        first += size


def _drawn_state(d, start, seed, r, rule, reads):
    # the replica's Generator state after the draws the stream layout gives
    # the run of `rule`: every block before the one where the run ends draws
    # its uniforms and variates; that block draws its uniforms, and then all
    # of its variates where its walk goes on, those of its walked events
    # where its walk stops, and none where the run reads no time
    steps = []
    k, _, _ = _reference_chain(d, start, _exponential_draws(seed, r), path=steps, **rule)
    stopped = k in (rule.get("lower"), rule.get("upper"))
    first, size = _block_of(len(steps) - stopped)  # the event that ended the run
    variates = size
    if stopped:
        variates = len(steps) - first if reads else 0
    elif "lower" in rule or "upper" in rule:
        # the horizon ended the run, and its walk goes on to a stop or to the
        # block's end
        walk = []
        draws = itertools.islice(_exponential_draws(seed, r), first + size)
        if _reference_chain(d, start, draws, path=walk, **dict(rule, horizon=math.inf)):
            variates = len(walk) - first
    rng, drawn = sim.replica_rng(seed, r), 0
    for block in _blocks():
        if drawn == first:
            break
        rng.random(block)
        rng.standard_exponential(block)
        drawn += block
    rng.random(size)
    rng.standard_exponential(variates)
    return rng.bit_generator.state


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_kernel_matches_scalar_loop(case):
    _check_kernel_case(case)


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_kernel_matches_scalar_loop_with_python_walk(case):
    with _python_walk():
        _check_kernel_case(case)


def _check_kernel_case(case):
    n, beta, start, rule = _KERNEL_CASES[case]
    rule = dict(rule)
    d = _d(n, alpha=rule.pop("alpha", 1.0), beta=beta)
    with_path = rule.pop("path", False)
    seed = rule.pop("seed", 900)
    lengths = rule.pop("events", {r: None for r in range(40)})
    untimed = "horizon" not in rule and not with_path
    censored = 0
    for r, length in lengths.items():
        want_path, got_path = ([], []) if with_path else (None, None)
        want = _reference_chain(d, start, _exponential_draws(seed, r), path=want_path, **rule)
        with _stream_end() as end:
            got = sim._run_chain(d, start, sim._replica_key(seed, r), path=got_path, **rule)
        rng, = end
        assert got == want
        assert got_path == want_path
        assert rng.bit_generator.state == _drawn_state(d, start, seed, r, rule, True)
        if length is not None:
            steps = []
            _reference_chain(d, start, _exponential_draws(seed, r), path=steps, **rule)
            if isinstance(length, tuple):
                length, walked = length
                walk = []
                _reference_chain(d, start, _exponential_draws(seed, r), path=walk,
                                 **dict(rule, horizon=math.inf))
                assert len(walk) == walked
            assert len(steps) == length
        if untimed:
            # escape races and cycles read no exit time: they walk the same
            # directions and divide only the holding times the level needs
            with _stream_end() as end:
                bare = sim._run_chain(d, start, sim._replica_key(seed, r), timed=False, **rule)
            rng, = end
            assert bare == (want[0], None, want[2])
            assert rng.bit_generator.state == _drawn_state(d, start, seed, r, rule,
                                                           "level" in rule)
        censored += got[1] == rule.get("horizon")
    if case in ("upper_with_cap", "horizon_with_level", "dense"):
        assert 0 < censored < 40  # both exits are exercised


_REFERENCE_EVENTS = 6000  # examples whose oracle walks longer are dropped


@st.composite
def _chain_calls(draw):
    n = draw(st.integers(2, 200))
    rate = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    d = _d(n, alpha=draw(rate), beta=draw(rate))
    k = draw(st.integers(0, d.N))
    gap = st.sampled_from(range(9)).map(lambda e: 2 ** e)  # 1 to 256 counts
    rule = {}
    if k > 0 and draw(st.booleans()):
        rule["lower"] = max(0, k - draw(gap))
    if k < d.N and draw(st.booleans()):
        rule["upper"] = min(d.N, k + draw(gap))
    if draw(st.booleans()):
        rule["level"] = draw(st.integers(0, d.N + 1))
    stops = rule.keys() & {"lower", "upper"}
    timed = not stops or draw(st.booleans())
    if timed and (not stops or draw(st.booleans())):
        # 16 to 8192 holding times at the start's total rate
        tot = (d.N - k) * (d.beta / (n - 1)) + k * d.alpha
        rule["horizon"] = 2.0 ** draw(st.sampled_from(range(4, 14))) / tot
    return d, k, rule, timed, timed and draw(st.booleans())


def _check_random_chain_call(call, seed):
    d, k, rule, timed, with_path = call
    want_path, got_path = ([], []) if with_path else (None, None)
    draws = itertools.islice(_exponential_draws(seed, 0), _REFERENCE_EVENTS)
    want = _reference_chain(d, k, draws, path=want_path, **rule)
    assume(want is not None)  # the oracle ran out of draws
    with _stream_end() as end:
        got = sim._run_chain(d, k, sim._replica_key(seed, 0), path=got_path, timed=timed, **rule)
    rng, = end
    assert got == (want if timed else (want[0], None, want[2]))
    assert got_path == want_path
    reads = timed or "level" in rule
    assert rng.bit_generator.state == _drawn_state(d, k, seed, 0, rule, reads)


@given(call=_chain_calls(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_scalar_loop_on_random_inputs(call, seed):
    _check_random_chain_call(call, seed)


@given(call=_chain_calls(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_kernel_matches_scalar_loop_on_random_inputs_with_python_walk(call, seed):
    with _python_walk():
        _check_random_chain_call(call, seed)


# the count chain's samplers' stop rules: escape races, cycles, passages
_CHUNK_RULES = [dict(lower=20, upper=36, timed=False), dict(lower=9, level=22, timed=False),
                dict(upper=36, horizon=4.0), dict(upper=36, horizon=4.0, level=30)]


@st.composite
def _replica_ranges(draw):
    # chunks lo..hi-1 that cross key blocks of 64 replicas, down to a chunk
    # of one, below 2^32, across it and above it
    lo = draw(st.one_of(st.integers(0, 200), st.integers(2**32 - 80, 2**32 + 10)))
    return lo, lo + draw(st.sampled_from([1, 2, 63, 64, 65, 130]))


def _check_chunk(seed, lo, hi, rule):
    # a chunk's runs give each replica's `_run_blocks` result and leave each
    # replica's stream where that reference left its Generator
    d = _d(40)
    k, lower, upper, level, reads = sim._chain_args(d, 28, rule.get("lower", -1),
                                                    rule.get("upper", -1), rule.get("level"),
                                                    rule.get("timed", True))
    want, want_ends = [], []
    for r in range(lo, hi):
        generators = []
        with mock.patch.object(sim, "_key_generator",
                               wraps=_recording(generators, sim._key_generator)):
            want.append(sim._run_blocks(d, k, sim._replica_key(seed, r), lower, upper,
                                        rule.get("horizon", math.inf), level, None,
                                        rule.get("timed", True), reads))
        want_ends.append(generators[0].bit_generator.state)
    keys = sim._replica_keys(seed, lo, hi)
    assert keys.tolist() == [sim._replica_key(seed, r).tolist() for r in range(lo, hi)]
    structs, generators = [], []
    with mock.patch.object(sim, "_run_state", wraps=_recording(structs, sim._run_state)), \
            mock.patch.object(sim, "_key_generator",
                              wraps=_recording(generators, sim._key_generator)):
        got = sim._run_chunk(d, 28, seed, lo, hi, **rule)
    if structs:
        generators = [_generator_at(row.tobytes()) for s in structs for row in s["stream"]]
    assert got == want
    assert [rng.bit_generator.state for rng in generators] == want_ends


@given(seed=st.sampled_from(_SEEDS), replicas=_replica_ranges(),
       rule=st.sampled_from(_CHUNK_RULES))
@settings(max_examples=60, deadline=None)
def test_chunked_runs_match_the_per_replica_reference(seed, replicas, rule):
    _check_chunk(seed, *replicas, rule)


@given(seed=st.sampled_from(_SEEDS), replicas=_replica_ranges(),
       rule=st.sampled_from(_CHUNK_RULES))
@settings(max_examples=30, deadline=None)
def test_chunked_runs_match_the_per_replica_reference_with_python_walk(seed, replicas, rule):
    with _python_walk():
        _check_chunk(seed, *replicas, rule)


def test_a_chunk_longer_than_one_call_gives_the_same_runs():
    # `_run_chunk` runs at most `_RUNS_PER_CALL` replicas per C call; a
    # chunk cut into calls of 7 gives the list of one call
    if "compiled" not in _walks():
        pytest.skip("the compiled run cannot be built here")
    d = _d(40)
    want = sim._run_chunk(d, 28, 5, 60, 100, lower=20, upper=36)
    structs = []
    with mock.patch.object(sim, "_RUNS_PER_CALL", 7), \
            mock.patch.object(sim, "_run_state", wraps=_recording(structs, sim._run_state)):
        assert sim._run_chunk(d, 28, 5, 60, 100, lower=20, upper=36) == want
    assert [len(s) for s in structs] == [7] * 5 + [5]
    assert sim._RUNS_PER_CALL * sim._run_types()[1].itemsize <= 1 << 20


@pytest.mark.parametrize("rule", [dict(lower=20, upper=36), dict(upper=36, horizon=1.0)],
                         ids=["stop", "horizon"])
def test_a_finished_run_returns_at_once(rule):
    # a run called again on the struct its end left draws nothing and
    # changes nothing: a stop leaves block size 0, a horizon -1
    if "compiled" not in _walks():
        pytest.skip("the compiled run cannot be built here")
    d = _d(40)
    k, lower, upper, level, reads = sim._chain_args(d, 28, rule.get("lower", -1),
                                                    rule["upper"], None, True)
    state = sim._run_state(d, k, sim._replica_keys(3, 0, 1), lower, upper,
                           rule.get("horizon", math.inf), level, reads)
    run = sim._compiled_walk(sim._RUN_SOURCE, sim._NPYRANDOM).run
    run(ctypes.c_void_p(state.ctypes.data), None, None)
    ended = state.tobytes()
    assert state["size"][0] == (0 if "lower" in rule else -1)
    assert run(ctypes.c_void_p(state.ctypes.data), None, None) == 0
    assert state.tobytes() == ended


_PCG_MULTIPLIER = (2549297995355413924 << 64) | 4865540595714422341  # numpy's PCG64 LCG


def _stream_before(uniform):
    # PCG64 (state, inc) bytes, as struct run's stream holds them, whose
    # next double is `uniform`, a multiple of 2^-53: the next LCG step lands
    # on the state whose high word is 0 and low word `uniform` * 2^64, so the
    # XSL-RR output (rotation 0) is that word
    inc, after = 1, int(uniform * 2**53) << 11
    before = (after - inc) * pow(_PCG_MULTIPLIER, -1, 2**128) % 2**128
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    assert rng.random() == uniform
    return before.to_bytes(16, sys.byteorder) + inc.to_bytes(16, sys.byteorder)


def _first_compiled_step(d, k, uniform):
    # the count after the compiled run's first event from k, its first
    # uniform `uniform`, from a stream set in its struct (an odd inc, so the
    # run does not seed it); stops at k - 1 and k + 1 end the run there,
    # reading no time
    state = sim._run_state(d, k, np.zeros((1, 4), np.uint64), k - 1, k + 1, math.inf, d.N + 1,
                           False)
    state["stream"] = np.frombuffer(_stream_before(uniform), np.uint64)
    run = sim._compiled_walk(sim._RUN_SOURCE, sim._NPYRANDOM).run
    assert run(ctypes.c_void_p(state.ctypes.data), None, None) == 1
    assert state["size"][0] == 0  # a stop ended the run
    return state["count"][0]


def _first_python_step(d, k, uniform):
    # the count after the Python walk's first event from k, its uniforms all
    # `uniform`, from a stand-in Generator that has no Exp(1) variates to
    # give; stops at k - 1 and k + 1 end the run there, reading no time
    scripted = types.SimpleNamespace(random=lambda size: np.full(size, uniform))
    with mock.patch.object(sim, "_key_generator", lambda key: scripted):
        count, t, _ = sim._run_blocks(d, k, sim._replica_key(1, 0), k - 1, k + 1, math.inf,
                                      d.N + 1, None, False, False)
    assert t is None
    return count


def test_jump_thresholds_keep_the_walk_in_range():
    # uniforms lie in [0, 1): a threshold of exactly 1 always jumps up from
    # the empty graph, one of exactly 0 always jumps down from the full one,
    # in either kernel
    top = 1.0 - 2.0 ** -53
    for n in (2, 40, 2000):
        for alpha, beta in ((1.0, 1.0), (1.0, 200.0), (1e-3, 1.0), (1e3, 1.0)):
            d = _d(n, alpha=alpha, beta=beta)
            for lo, count, threshold in ((0, 0, 1.0), (d.N - 1, d.N, 0.0)):
                lam, mu = _kernel_rates(lo, lo + 2, d)
                assert (lam / (lam + mu))[count - lo] == threshold
            assert _first_python_step(d, 0, top) == 1
            assert _first_python_step(d, d.N, 0.0) == d.N - 1
            if "compiled" in _walks():
                assert _first_compiled_step(d, 0, top) == 1
                assert _first_compiled_step(d, d.N, 0.0) == d.N - 1


@given(n=st.integers(2, 200), alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0),
       past_32_bits=st.booleans())
@settings(max_examples=100, deadline=None)
def test_compiled_windows_hold_the_python_windows(n, alpha, beta, past_32_bits):
    # the compiled run computes each block's thresholds and total rates
    # itself: they are the bytes of lam / (lam + mu) and lam + mu from
    # `_kernel_rates`, as `_run_blocks` reads them, over every count of the
    # chain, or over a window of counts past 2^31
    if "compiled" not in _walks():
        pytest.skip("the compiled run cannot be built here")
    d = _d(70000 if past_32_bits else n, alpha=10.0 ** alpha, beta=10.0 ** beta)
    lo, hi = (2_200_000_000 - 2048, 2_200_000_000 + 2049) if past_32_bits else (0, d.N + 1)
    th, tot = (ctypes.c_double * (hi - lo))(), (ctypes.c_double * (hi - lo))()
    sim._compiled_walk(sim._RUN_SOURCE, sim._NPYRANDOM).rates(
        ctypes.c_longlong(lo), hi - lo, ctypes.c_longlong(d.N), ctypes.c_double(d.alpha),
        ctypes.c_double(d.beta / (d.n - 1)), th, tot)
    lam, mu = _kernel_rates(lo, hi, d)
    assert (bytes(th), bytes(tot)) == ((lam / (lam + mu)).tobytes(), (lam + mu).tobytes())


def test_the_path_buffers_hold_the_compiled_runs_largest_block():
    # `_run_types` sizes a block's event-time and count buffers by
    # `_LAST_BLOCK`, and C `blocks` writes up to LAST events there
    assert f"LAST = {sim._LAST_BLOCK}" in sim._RUN_SOURCE


def test_kernel_refuses_a_start_outside_its_stops():
    # no public sampler starts on a stop, and a start there would walk no event
    d = _d(10)
    for k, rule in ((5, dict(lower=5, upper=9)), (9, dict(lower=5, upper=9)),
                    (4, dict(lower=5, upper=9)), (10, dict(lower=5, upper=9)),
                    (0, dict(lower=0)), (d.N, dict(upper=d.N)), (-1, {}), (d.N + 1, {})):
        with pytest.raises(ValueError, match="strictly between"):
            sim._run_chain(d, k, sim._replica_key(1, 0), **rule)


@pytest.mark.parametrize("call", [
    lambda d: sim.sample_time_above(d, 5.0, 2, seed=1),
    lambda d: sim.sample_escapes(d, 4.5, 8, 2, 3, seed=1),
    lambda d: sim.simulate_trajectory(d, 2.5, 1.0, seed=1),
    lambda d: sim.sample_hitting_time(d, 0, 5.0, seed=1),
], ids=["time_above", "escapes", "trajectory", "hitting"])
def test_kernel_refuses_non_integer_counts(call):
    # a float count never lands on a stop, so the walk could not end; the
    # integer call first loads the kernel and fills the key block's cache
    d = _d(10)
    sim.sample_hitting_time(d, 0, 5, seed=1)
    with pytest.raises(TypeError):
        call(d)


def test_concurrent_runs_keep_their_own_direction_buffers():
    # the compiled run runs without the interpreter lock, so runs on threads
    # (more than the cores) must each write their own direction buffer,
    # accumulators, path buffers and PCG64 stream state
    d = _d(40)

    def run(seed, r):
        path = []
        got = sim._run_chain(d, 0, sim._replica_key(seed, r), upper=32, horizon=40.0,
                             level=16, path=path)
        return got, path

    def passages(seed):
        return ([sim._run_chain(d, 0, sim._replica_key(seed, r), upper=32) for r in range(20)]
                + [run(seed, r) for r in range(20)])

    want = [passages(seed) for seed in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = [f.result(timeout=60) for f in [pool.submit(passages, s) for s in range(8)]]
    finally:
        sys.setswitchinterval(old)
    assert got == want


@pytest.mark.parametrize("seed", _SEEDS)
def test_both_kernels_key_replicas_around_2_to_the_32_alike(seed):
    # below 2^32 a key comes from its cached block, from 2^32 on from
    # SeedSequence itself; the compiled run, seeding its PCG64 from the key,
    # and the Python loop, drawing from the key's Generator, give the same
    # bytes and leave the stream where the layout says
    d = _d(40)
    rule = dict(upper=32, horizon=30.0, level=16)
    for r in (2**32 - 65, 2**32 - 1, 2**32, 2**32 + 5):
        want_path = []
        want = _reference_chain(d, 0, _exponential_draws(seed, r), path=want_path, **rule)
        runs = []
        for name in _walks():
            with _kernel(name), _stream_end() as end:
                path = []
                got = sim._run_chain(d, 0, sim._replica_key(seed, r), path=path, **rule)
            runs.append((got, path, end[0].bit_generator.state))
        assert runs == [(want, want_path, _drawn_state(d, 0, seed, r, rule, True))] * len(runs)


def test_count_chain_replicas_build_no_generator():
    # the compiled run seeds each replica's stream from its key, so with it
    # loaded the count chain's samplers build no numpy Generator at all
    if "compiled" not in _walks():
        pytest.skip("the compiled run cannot be built here")
    d = _d(40)

    def samples():
        return (sim.sample_escapes(d, 28, 36, 20, 200, seed=11),
                sim.sample_hitting_times(d, 0, 32, 200, seed=11),
                sim.estimate_hitting_renewal(d, 0.8, 100, seed=11))

    want = samples()
    with mock.patch.object(np.random, "Generator", side_effect=AssertionError("a Generator")):
        assert samples() == want


def test_without_numpys_random_archive_the_count_chain_runs_in_python(tmp_path):
    # the compiled run links numpy's random archive; where it is missing the
    # count chain takes its Python loop, with the same bytes, and the
    # component passage, which links nothing, still loads compiled
    d = _d(40)

    def runs():
        path = []
        return ([sim._run_chain(d, 0, sim._replica_key(6, r), upper=32, level=16)
                 for r in range(20)]
                + [sim._run_chain(d, 28, sim._replica_key(6, r), lower=20, upper=36, timed=False)
                   for r in range(20)]
                + [sim._run_chain(d, 0, sim._replica_key(6, 0), horizon=40.0, path=path), path])

    want = runs()
    with mock.patch.object(sim, "_NPYRANDOM", str(tmp_path / "libnpyrandom.a")), \
            mock.patch.object(sim, "_run_blocks", wraps=sim._run_blocks) as python:
        assert sim._compiled_walk(sim._RUN_SOURCE, sim._NPYRANDOM) is None
        assert runs() == want
        assert python.call_count == 41
        assert "compiled" not in _walks()
    if shutil.which("cc") is not None:
        assert sim._compiled_walk(comp._PASSAGE_SOURCE) is not None


def test_without_128_bit_integers_the_count_chain_runs_in_python():
    # the compiled run keeps PCG64's state in unsigned __int128; a compiler
    # without it rejects the source, which leaves the count chain on its
    # Python loop, with the same bytes
    if "compiled" not in _walks():
        pytest.skip("the compiled run cannot be built here")
    d = _d(40)
    want = [sim._run_chain(d, 28, sim._replica_key(6, r), lower=20, upper=36) for r in range(10)]
    source = sim._RUN_SOURCE.replace("unsigned __int128", "no_int128")
    with mock.patch.object(sim, "_RUN_SOURCE", source), \
            mock.patch.object(sim, "_run_blocks", wraps=sim._run_blocks) as python:
        assert sim._compiled_walk(source, sim._NPYRANDOM) is None
        assert [sim._run_chain(d, 28, sim._replica_key(6, r), lower=20, upper=36)
                for r in range(10)] == want
        assert python.call_count == 10


def test_library_names_follow_the_linked_archives(tmp_path):
    # a library is named by its archives' paths, sizes and modification
    # times as well as its source, so a changed archive builds a new library
    archive = tmp_path / "libnpyrandom.a"
    archive.write_bytes(b"one")
    names = [sim._library_path(sim._RUN_SOURCE, ())]
    for size, mtime in ((3, 1), (3, 2), (4, 2)):
        archive.write_bytes(b"o" * size)
        os.utime(archive, ns=(mtime, mtime))
        names.append(sim._library_path(sim._RUN_SOURCE, (str(archive),)))
    copy = tmp_path / "copy.a"
    copy.write_bytes(archive.read_bytes())
    os.utime(copy, ns=(2, 2))
    names.append(sim._library_path(sim._RUN_SOURCE, (str(copy),)))
    assert len(set(names)) == len(names) == 5
    assert sim._library_path(sim._RUN_SOURCE, (str(archive),)) == names[3]
    with pytest.raises(OSError):
        sim._library_path(sim._RUN_SOURCE, (str(tmp_path / "missing.a"),))


def test_a_new_library_removes_only_its_kernels_older_ones(tmp_path):
    # a library is named by its kernel, the last function its source
    # exports; building one removes that kernel's libraries of other
    # sources and the unnamed `_kernel-<16 hex digits>.so` of builds from
    # before kernels were named, and keeps other kernels' and other files
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    sources = [f"int {name}(void)\n{{\n    return {value};\n}}\n"
               for name, value in (("tiny", 1), ("other", 3), ("tiny", 2))]
    unnamed = ["_kernel-9fec670a0a47c417.so", "_kernel-f6764b9364d2d0c1.so"]
    others = ["_kernel-9fec670a.so", "_kernel-9fec670a0a47c417.so.txt",
              "kernel-f6764b9364d2d0c1.so"]
    build = sim._compiled_walk.__wrapped__  # not into the cache of loaded kernels
    with mock.patch.object(sim, "_CACHE", str(tmp_path)):
        assert build(sources[0]).tiny() == 1
        for name in unnamed + others:
            (tmp_path / name).write_bytes(b"")
        assert build(sources[1]).other() == 3
        assert len(os.listdir(tmp_path)) == 2 + len(others)
        for name in unnamed:
            (tmp_path / name).write_bytes(b"")
        assert build(sources[2]).tiny() == 2
        kept = {os.path.basename(sim._library_path(source, ())) for source in sources[1:]}
    assert set(os.listdir(tmp_path)) == kept | set(others)
    assert sorted(name.split("-")[1] for name in kept) == ["other", "tiny"]


def test_kernel_paths_span_many_blocks():
    # horizon 20 at n=2000 runs through every block size; from 1040 the walk
    # crosses count 1024, a multiple of every block size below 2048, both
    # ways
    d = _d(2000)
    want, got = [(0.0, 1040)], [(0.0, 1040)]
    _reference_chain(d, 1040, _exponential_draws(901, 0), horizon=20.0, path=want)
    sim._run_chain(d, 1040, sim._replica_key(901, 0), horizon=20.0, path=got)
    assert len(got) > 10_000
    assert got == want
    assert all(type(t) is float and type(k) is int for t, k in got)


def test_horizon_in_the_first_block_reads_one_block():
    # each block is timed as soon as its variates are drawn, so a short
    # trajectory walks and draws no block past the one that passes the horizon
    d = _d(6)
    for name in _walks():
        with _kernel(name):
            for r in range(50):
                path = []
                with _stream_end() as end:
                    sim._run_chain(d, 0, sim._replica_key(101, r), horizon=3.0, path=path)
                rng, = end
                assert len(path) < 128
                ref = sim.replica_rng(101, r)
                ref.random(128)
                ref.standard_exponential(128)
                assert rng.bit_generator.state == ref.bit_generator.state


def test_a_horizon_on_an_event_time_keeps_that_event():
    # the run ends at the first event past the horizon, so an event exactly
    # at the horizon is kept and the next one is cut: inside a block, on the
    # last event of the first and second blocks and on the first of the next
    d = _d(40)
    full = []
    _reference_chain(d, 0, _exponential_draws(908, 0), horizon=60.0, path=full)
    for e in (50, 127, 128, 383, 384):
        horizon, count = full[e]
        assert full[e + 1][0] > horizon
        want = _reference_chain(d, 0, _exponential_draws(908, 0), horizon=horizon, level=5)
        assert want[:2] == (count, horizon) and want[2] > 0.0
        for name in _walks():
            path = []
            with _kernel(name):
                got = sim._run_chain(d, 0, sim._replica_key(908, 0), horizon=horizon, level=5,
                                     path=path)
            assert path == full[:e + 1]
            assert got == want


def test_hitting_time_with_infinite_cap_is_exact():
    # an infinite cap censors nothing, and the sample still carries its time
    d = _d(40)
    for r in range(10):
        got = sim.sample_hitting_time(d, 0, 32, 903, cap=math.inf, replica=r)
        k, t, _ = _reference_chain(d, 0, _exponential_draws(903, r), upper=32)
        assert (got.time, got.censored) == (t, False) and k == 32


def test_kernel_passage_law_matches_inverted_uniforms():
    # Exp(1) variates and inverted uniforms are two draws of one holding-time
    # law, so passages 0 -> 32 from the kernel and from the oracle fed the
    # former inverted uniforms agree within the two-sample DKW bound at a
    # 1e-6 false-alarm level
    d = _d(40)
    reps = 1000
    kernel = [sim.sample_hitting_time(d, 0, 32, 904, cap=math.inf, replica=r).time
              for r in range(reps)]
    inverted = [_reference_chain(d, 0, _inverted_draws(905, r), upper=32)[1]
                for r in range(reps)]
    assert ks_2samp(kernel, inverted).statistic < 2 * math.sqrt(math.log(4 / 1e-6) / (2 * reps))


def test_first_event_time_is_one_exponential_over_the_total_rate():
    # a run's first event time is one holding time exactly: the first Exp(1)
    # variate of its stream, read after the first block's 128 directions
    d = _d(50, beta=3.0)
    birth_scale = d.beta / (d.n - 1)
    for start in (0, 7, d.N // 2, d.N):
        tot = (d.N - start) * birth_scale + start * d.alpha
        for r in range(50):
            path = sim.simulate_trajectory(d, start, 10.0, 906, replica=r)
            rng = sim.replica_rng(906, r)
            rng.random(128)
            assert path.events[1][0] == rng.standard_exponential() / tot


@pytest.mark.parametrize("rule", [dict(timed=False), dict(level=32, timed=False), {}],
                         ids=["untimed", "untimed_level", "timed"])
def test_final_block_draws_only_the_variates_it_reads(rule):
    # a run leaves its Generator right after the Exp(1) variates of its
    # final block's events, or right after that block's directions when it
    # reads no time; every earlier block reads all of its variates
    d = _d(40)
    later = 0
    for r in range(40):
        steps = []
        _reference_chain(d, 28, _exponential_draws(907, r), lower=20, upper=36, path=steps)
        later += len(steps) > 128
        with _stream_end() as end:
            sim._run_chain(d, 28, sim._replica_key(907, r), lower=20, upper=36, **rule)
        rng, = end
        ref = sim.replica_rng(907, r)
        size, left = 128, len(steps)
        while left > size:
            ref.random(size)
            ref.standard_exponential(size)
            left -= size
            size = min(2 * size, 2048)
        ref.random(size)
        if rule == dict(timed=False):
            assert rng.bit_generator.state == ref.bit_generator.state
        else:
            ref.standard_exponential(left)
            assert rng.standard_exponential() == ref.standard_exponential()
    assert 0 < later < 40  # runs that stop in the first block and in the second


def test_pcg64_double_draws_do_not_depend_on_draw_size():
    # the labeled chain's _uniforms reads 4096 doubles at a time; that is the
    # replica's stream of doubles in order only because of this numpy fact
    whole = sim.replica_rng(77, 3).random(8192)
    rng = sim.replica_rng(77, 3)
    parts = np.concatenate([rng.random(s) for s in (256, 512, 1024, 2048, 4096)])
    assert np.array_equal(parts, whole[:len(parts)])


def test_pcg64_exponential_draws_do_not_depend_on_draw_size():
    # _run_chain reads Exp(1) variates 128, 256, ... 2048 at a time, and in
    # its final block one per event; the first-event test reads one; all see
    # one stream only because of this
    whole = sim.replica_rng(77, 3).standard_exponential(1000)
    rng = sim.replica_rng(77, 3)
    parts = np.concatenate([rng.standard_exponential(s) for s in (1, 7, 128, 256, 608)])
    rng = sim.replica_rng(77, 3)
    scalars = [rng.standard_exponential() for _ in range(1000)]
    assert np.array_equal(parts, whole)
    assert scalars == whole.tolist()
