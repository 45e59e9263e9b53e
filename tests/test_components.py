import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from dyner import analytic as an
from dyner import components as comp
from dyner import simulate as sim
from dyner.model import ModelParams, closest_integer, derive
from dyner.stats import chi_square_pvalue


def _d(n, alpha=1.0, beta=1.0):
    return derive(ModelParams(n, alpha, beta))


def _two_sample_ks(xs, ys):
    xs = np.sort(xs)
    ys = np.sort(ys)
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / len(xs)
    fy = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(fx - fy)))


# ------------------------------------------------------------ GraphState


def test_empty_graph_largest_is_one():
    state = comp.GraphState(6)
    assert comp.largest_component_size(state) == 1


def test_complete_graph_largest_is_n():
    n = 7
    state = comp.GraphState(n)
    for u in range(n):
        for v in range(u + 1, n):
            state.add_edge(u, v)
    assert comp.largest_component_size(state) == n
    state.verify()


def test_path_component_fixture():
    state = comp.GraphState(6)
    for u, v in ((0, 1), (1, 2), (2, 3)):
        state.add_edge(u, v)
    assert comp.largest_component_size(state) == 4
    state.verify()


def test_split_and_rejoin():
    state = comp.GraphState(5)
    for u, v in ((0, 1), (1, 2), (3, 4)):
        state.add_edge(u, v)
    assert state.largest_component_size() == 3
    state.remove_edge(1, 2)
    state.verify()
    assert state.largest_component_size() == 2
    state.add_edge(2, 3)
    state.verify()
    assert state.largest_component_size() == 3  # {2,3,4}


def test_cycle_edge_removal_keeps_component():
    state = comp.GraphState(4)
    for u, v in ((0, 1), (1, 2), (2, 0)):
        state.add_edge(u, v)
    state.remove_edge(0, 1)
    state.verify()
    assert state.largest_component_size() == 3


def test_duplicate_and_missing_edges_rejected():
    state = comp.GraphState(4)
    state.add_edge(0, 1)
    with pytest.raises(ValueError):
        state.add_edge(1, 0)
    with pytest.raises(ValueError):
        state.remove_edge(2, 3)
    with pytest.raises(ValueError):
        state.add_edge(2, 2)


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_edit_sequence_stays_exact(pairs, seed):
    rng = np.random.default_rng(seed)
    state = comp.GraphState(10)
    for u, v in pairs:
        if u == v:
            continue
        if state.has_edge(min(u, v), max(u, v)):
            state.remove_edge(u, v)
        else:
            state.add_edge(u, v)
        if rng.random() < 0.3 and state.edge_count:
            a, b = state.edges[int(rng.integers(state.edge_count))]
            state.remove_edge(a, b)
        state.verify()


# ------------------------------------------------------------ dynamics


def test_simulate_graph_verified_bookkeeping():
    d = _d(30)
    state = comp.simulate_graph(d, 4.0, seed=71, verify=True)
    assert state.time == 4.0
    state.verify()


def test_simulate_graph_monotone_component_updates():
    d = _d(25)
    sizes = []

    def watch(event):
        sizes.append((event.added, event.largest))

    comp.simulate_graph(d, 6.0, seed=72, observers=(watch,))
    previous = 1
    for added, largest in sizes:
        if added:
            assert largest >= previous
        else:
            assert largest <= previous
        previous = largest


def test_edge_marginal_matches_transition_function():
    # P(specific pair present at t) from the empty graph equals p01(t)
    d = _d(3)
    t_probe = 0.5
    hits = sum(
        comp.simulate_graph(d, t_probe, seed=73, replica=r).has_edge(0, 1)
        for r in range(4000)
    )
    p_exact = an.transition_probability(0, 1, t_probe, d)
    se = math.sqrt(p_exact * (1 - p_exact) / 4000)
    assert abs(hits / 4000 - p_exact) < 3 * se


def test_long_run_edge_presence_stationary():
    d = _d(3)
    horizon = 8.0  # ~12 refresh times
    hits = sum(
        comp.simulate_graph(d, horizon, seed=74, replica=r).has_edge(1, 2)
        for r in range(3000)
    )
    se = math.sqrt(d.p * d.q / 3000)
    assert abs(hits / 3000 - d.p) < 3 * se


def test_dense_graph_edge_count_is_binomial():
    # p ~ 0.95 keeps the graph above half full, where absent pairs are drawn
    # by rejection against the present ones; per-pair independence makes the
    # edge count at t exactly Binomial(N, p01(t)) from the empty graph
    d = _d(12, beta=200.0)
    horizon = 1.0
    reps = 300
    counts = [
        comp.simulate_graph(d, horizon, seed=79, replica=r, verify=True).edge_count
        for r in range(reps)
    ]
    p_t = an.transition_probability(0, 1, horizon, d)
    assert d.p > 0.94
    pmf = binom.pmf(np.arange(d.N + 1), d.N, p_t)
    low = int(binom.ppf(0.01, d.N, p_t))
    cells = [sum(1 for k in counts if k <= low)]
    probs = [float(pmf[: low + 1].sum())]
    cells += [counts.count(k) for k in range(low + 1, d.N + 1)]
    probs += pmf[low + 1:].tolist()
    assert chi_square_pvalue(cells, probs) > 0.001
    se = math.sqrt(d.N * p_t * (1 - p_t) / reps)
    assert abs(float(np.mean(counts)) - d.N * p_t) < 4 * se


def test_first_insertion_uniform_over_pairs():
    d = _d(4)
    counts = {}
    for r in range(3000):
        seen = []

        def first(event, seen=seen):
            if not seen:
                seen.append((event.u, event.v))

        comp.simulate_graph(d, 0.8, seed=75, replica=r, observers=(first,))
        if seen:
            counts[seen[0]] = counts.get(seen[0], 0) + 1
    assert len(counts) == 6
    assert chi_square_pvalue(list(counts.values())) > 0.001


def test_edge_count_law_matches_aggregate_chain():
    # hitting time of 6 edges: labeled engine vs aggregate birth-death engine
    d = _d(10)
    level = 6
    labeled = []
    for r in range(400):
        recorded = []

        def watch(event, recorded=recorded):
            if not recorded and event.edge_count >= level:
                recorded.append(event.time)

        comp.simulate_graph(d, 30.0, seed=76, replica=r, observers=(watch,))
        labeled.append(recorded[0])
    aggregate = [
        s.time for s in sim.sample_hitting_times(d, 0, level, 400, seed=77)
    ]
    assert _two_sample_ks(labeled, aggregate) <= 0.1


def test_snapshot_matches_static_uniform_law():
    # conditioned on its edge count, a dynamic snapshot is a uniform graph:
    # compare largest-component distributions at the first time count = m
    d = _d(60)
    m_target = 35  # mildly supercritical; hit in O(1) time
    dynamic = []
    for r in range(250):
        state = comp.GraphState(d.n)
        for _ in comp._edge_flips(d, sim._uniforms(78, r), math.inf, [], state):
            if state.edge_count == m_target:
                break
        dynamic.append(state.largest_component_size())
    static = comp.static_largest_samples(60, m_target, 250, seed=79)
    assert _two_sample_ks(dynamic, static) <= 0.12


# ------------------------------------------------------------ component hitting


def test_component_hitting_trivial_threshold():
    d = _d(10)
    sample = comp.sample_component_hitting(d, 0.05, seed=81)  # ceil(0.5) = 1
    assert sample.time == 0.0
    assert not sample.censored


def test_component_hitting_two_vertices_is_first_insertion():
    # ceil(eps n) = 2: any first edge creates a 2-component
    d = _d(6)
    times = [
        comp.sample_component_hitting(d, 0.3, seed=82, replica=r).time
        for r in range(2000)
    ]
    rate = d.N * d.beta / (d.n - 1)
    se = float(np.std(times, ddof=1)) / math.sqrt(len(times))
    assert abs(float(np.mean(times)) - 1.0 / rate) < 3 * se


def test_component_hitting_censored_at_cap():
    d = _d(40)
    sample = comp.sample_component_hitting(d, 0.99, seed=83, cap=0.05)
    assert sample.censored
    assert sample.time == 0.05


def test_emergence_run_fields():
    d = _d(40)
    sample = comp.emergence_run(d, 0.2, 0.2, seed=84)
    assert sample.threshold == 8
    assert sample.edge_target == closest_integer(an.c_epsilon(0.4) * 40)
    assert not sample.edges_censored
    assert not sample.component_censored
    assert sample.dominated == (sample.tau_component <= sample.tau_edges)


def test_emergence_validation():
    d = _d(20)
    with pytest.raises(ValueError):
        comp.emergence_run(d, 1.5, 0.1, seed=1)
    with pytest.raises(ValueError):
        comp.emergence_run(d, 0.5, 0.6, seed=1)


def test_domination_agrees_with_tracked_emergence():
    # lean path (periodic checks) vs fully tracked path, as fractions
    d = _d(60)
    reps = 120
    lean = comp.domination_samples(d, 0.25, 0.2, reps, seed=85)
    tracked = [
        comp.emergence_run(d, 0.25, 0.2, seed=86, replica=r).dominated
        for r in range(reps)
    ]
    f_lean = np.mean([bool(x) for x in lean])
    f_tracked = np.mean([bool(x) for x in tracked])
    assert abs(f_lean - f_tracked) <= 0.15
    assert f_lean <= f_tracked + 0.05  # cadence can only under-report


# ------------------------------------------------------------ static graphs


def test_static_trivial_sizes():
    assert comp.static_er_largest_component(30, 0, seed=91) == 1
    n = 9
    assert comp.static_er_largest_component(n, n * (n - 1) // 2, seed=92) == n


def test_static_rejects_overfull():
    with pytest.raises(ValueError):
        comp.static_er_largest_component(4, 7, seed=93)


def test_static_dense_and_sparse_branches_return_m_edges():
    # near-complete graph exercises the permutation branch
    size = comp.static_er_largest_component(12, 60, seed=94)
    assert size == 12  # 60 of 66 edges cannot leave anything isolated enough
    sparse = comp.static_er_largest_component(400, 10, seed=95)
    assert 2 <= sparse <= 30


def test_static_supercritical_fraction():
    # design density c_eps(0.5): largest component holds about half the graph
    n = 800
    m = closest_integer(an.c_epsilon(0.5) * n)
    sizes = comp.static_largest_samples(n, m, 30, seed=96)
    assert 0.44 <= float(np.mean(sizes)) / n <= 0.56


def test_static_worker_independence():
    sizes_serial = comp.static_largest_samples(100, 80, 20, seed=97, workers=1)
    sizes_parallel = comp.static_largest_samples(100, 80, 20, seed=97, workers=2)
    assert sizes_serial == sizes_parallel
