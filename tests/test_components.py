import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chisquare, ks_2samp

from dyner import analytic as an
from dyner import components as comp
from dyner import simulate as sim
from dyner.model import ModelParams, closest_integer, derive


def _d(n, alpha=1.0, beta=1.0):
    return derive(ModelParams(n, alpha, beta))


# ------------------------------------------------------------ GraphState


def test_empty_graph_largest_is_one():
    state = comp.GraphState(6)
    assert state.largest_component_size() == 1


def test_complete_graph_largest_is_n():
    n = 7
    state = comp.GraphState(n)
    for u in range(n):
        for v in range(u + 1, n):
            state.add_edge(u, v)
    assert state.largest_component_size() == n
    state.verify()


def test_path_component_fixture():
    state = comp.GraphState(6)
    for u, v in ((0, 1), (1, 2), (2, 3)):
        state.add_edge(u, v)
    assert state.largest_component_size() == 4
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


@pytest.mark.parametrize("u,v", [(-1, 3), (1, 7), (3, -1), (7, 1), (5, 0)])
def test_out_of_range_vertex_rejected_before_any_change(u, v):
    state = comp.GraphState(5)
    state.add_edge(0, 1)
    state.add_edge(3, 4)
    adj = [set(a) for a in state.adj]
    for edit in (state.add_edge, state.remove_edge):
        with pytest.raises(ValueError, match="outside"):
            edit(u, v)
        assert state.adj == adj and state.edge_count == 2
        state.verify()


def test_non_integer_vertex_rejected_before_any_change():
    state = comp.GraphState(5)
    with pytest.raises(TypeError):
        state.add_edge(1, 2.5)
    assert state.edge_count == 0 and not any(state.adj)
    state.verify()


def test_split_of_one_of_two_largest_keeps_largest():
    # two components of 3; splitting one leaves the other at the top
    state = comp.GraphState(7)
    for u, v in ((0, 1), (1, 2), (3, 4), (4, 5)):
        state.add_edge(u, v)
    state.remove_edge(0, 1)
    state.verify()
    assert state.largest_component_size() == 3


def test_split_drops_largest_by_more_than_one():
    # a path on 6 vertices cut in the middle: the largest falls from 6 to 3
    state = comp.GraphState(8)
    for u in range(5):
        state.add_edge(u, u + 1)
    state.add_edge(6, 7)
    state.remove_edge(2, 3)
    state.verify()
    assert state.largest_component_size() == 3
    state.remove_edge(1, 2)
    state.verify()
    assert state.largest_component_size() == 3
    state.remove_edge(3, 4)
    state.verify()
    assert state.largest_component_size() == 2


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
            present = [(a, b) for a in range(10) for b in sorted(state.adj[a]) if a < b]
            a, b = present[int(rng.integers(state.edge_count))]
            state.remove_edge(a, b)
        state.verify()


# ------------------------------------------------------------ dynamics


def _verified_graph(d, horizon, seed, replica=0):
    # simulate_graph's run, after driving the same flips into a GraphState
    # whose incremental bookkeeping is checked against a full recomputation
    # after every flip; both must end on the same graph
    state = comp.GraphState(d.n)
    for _, added, key in comp._edge_flips(d, comp._uniforms(seed, replica), horizon, []):
        if added:
            state.add_edge(*divmod(key, d.n))
        else:
            state.remove_edge(*divmod(key, d.n))
        state.verify()
    graph = comp.simulate_graph(d, horizon, seed, replica=replica)
    assert graph.adj == state.adj
    return graph


def test_simulate_graph_verified_bookkeeping():
    state = _verified_graph(_d(30), 4.0, seed=71)
    assert state.time == 4.0
    state.verify()


@pytest.mark.parametrize("horizon", [0.0, math.inf, math.nan])
def test_simulate_graph_needs_finite_positive_horizon(horizon):
    with pytest.raises(ValueError):
        comp.simulate_graph(_d(6), horizon, seed=1)


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


def test_graph_event_is_an_immutable_record():
    events = []
    comp.simulate_graph(_d(12), 2.0, seed=73, observers=(events.append,))
    assert events
    event = events[0]
    assert event._fields == ("time", "added", "u", "v", "edge_count", "largest")
    assert (event.added, event.edge_count, event.largest) == (True, 1, 2)
    assert event.u < event.v
    with pytest.raises(AttributeError):
        event.largest = 3


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
        _verified_graph(d, horizon, seed=79, replica=r).edge_count
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
    assert chisquare(cells, reps * np.asarray(probs)).pvalue > 0.001
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
    assert chisquare(list(counts.values())).pvalue > 0.001


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
    assert ks_2samp(labeled, aggregate).statistic <= 0.1


def test_snapshot_matches_static_uniform_law():
    # conditioned on its edge count, a dynamic snapshot is a uniform graph:
    # compare largest-component distributions at the first time count = m
    d = _d(60)
    m_target = 35  # mildly supercritical; hit in O(1) time
    dynamic = []
    for r in range(250):
        state = comp.GraphState(d.n)
        for _, added, key in comp._edge_flips(d, comp._uniforms(78, r), math.inf, []):
            (state.add_edge if added else state.remove_edge)(*divmod(key, d.n))
            if state.edge_count == m_target:
                break
        dynamic.append(state.largest_component_size())
    static = comp.static_largest_samples(60, m_target, 250, seed=79)
    assert ks_2samp(dynamic, static).statistic <= 0.12


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


def test_component_hitting_refuses_float_seed():
    # int() would draw seed 1's stream under a sample that records 1.7
    with pytest.raises(TypeError):
        comp.sample_component_hitting(_d(10), 0.3, seed=1.7)


def _scripted_flips(n, script, edges):
    # (added, a, b) steps at times 1, 2, ..., keeping `edges` as _edge_flips does
    for t, (added, a, b) in enumerate(script, 1):
        key = a * n + b
        if added:
            edges.append(key)
        else:
            edges.remove(key)
        yield float(t), added, key


def test_component_passage_takes_up_a_below_threshold_rebuild():
    # the bound reaches the threshold 3 through the deleted edge (0, 1) at
    # t=3 and is rebuilt at 2; the rebuilt bound then sees {4, 5, 6} reach
    # exactly 3 at t=5, the step at which the edge count reaches 3 too
    script = [(True, 0, 1), (False, 0, 1), (True, 1, 2), (True, 4, 5), (True, 5, 6),
              (True, 6, 7)]
    edges = []
    flips = _scripted_flips(8, script, edges)
    assert comp._component_passage(flips, edges, 8, 3, edge_target=3) == (5.0, 5.0)
    assert next(flips) == (6.0, True, 6 * 8 + 7)


def test_emergence_run_fields():
    d = _d(40)
    assert comp._passage_bounds(d, 0.2, None)[1] == 8
    sample = comp.emergence_run(d, 0.2, 0.2, seed=84)
    assert not sample.edges_censored
    assert not sample.component_censored
    assert sample.dominated == (sample.tau_component <= sample.tau_edges)


def test_emergence_validation():
    d = _d(20)
    with pytest.raises(ValueError):
        comp.emergence_run(d, 1.5, 0.1, seed=1)
    with pytest.raises(ValueError):
        comp.emergence_run(d, 0.5, 0.6, seed=1)


def _reference_emergence(d, eps, delta, seed, cap=None, replica=0):
    # the tracked loop that _component_passage replaced, kept as its oracle:
    # a GraphState follows every flip until the component passage is seen,
    # and the flips' own edge list gives the edge count until its passage
    cap, threshold = comp._passage_bounds(d, eps, cap)
    edge_target = closest_integer(an.c_epsilon(eps + delta) * d.n)
    state = comp.GraphState(d.n)
    edges = []
    tau_component = None if threshold > 1 else 0.0
    tau_edges = dominated = None
    for t, added, key in comp._edge_flips(d, comp._uniforms(seed, replica), cap, edges):
        if tau_component is None:
            if added:
                state.add_edge(*divmod(key, d.n))
            else:
                state.remove_edge(*divmod(key, d.n))
            if state.largest_component_size() >= threshold:
                tau_component = t
        if tau_edges is None and len(edges) >= edge_target:
            tau_edges = t
            dominated = tau_component is not None and tau_component <= t
        if tau_component is not None and tau_edges is not None:
            break
    return tau_component, tau_edges, dominated


@pytest.mark.parametrize("n,reps,cap,eps,delta,seed", [
    pytest.param(60, 200, None, 0.3, 0.1, 80, id="60-200-None"),
    pytest.param(100, 100, None, 0.3, 0.1, 80, id="100-100-None"),
    pytest.param(300, 10, 20.0, 0.3, 0.1, 80, id="300-10-20.0"),
    # threshold 4, edge target 121: the law's gate refuses every start
    # below 27 edges, where the passage is drawn all the same
    pytest.param(200, 10, None, 0.02, 0.3, 3, id="200-10-None-refused"),
])
def test_emergence_matches_reference(n, reps, cap, eps, delta, seed):
    # tau_component is read off the same flips, so it is equal bit for bit;
    # so is tau_edges wherever the edge target came first
    d = _d(n)
    cap_used = comp._passage_bounds(d, eps, cap)[0]
    for r in range(reps):
        sample = comp.emergence_run(d, eps, delta, seed=seed, cap=cap, replica=r)
        tau_component, tau_edges, dominated = _reference_emergence(d, eps, delta, seed, cap, r)
        assert sample.component_censored == (tau_component is None)
        assert sample.tau_component == (cap_used if tau_component is None else tau_component)
        if dominated is False:
            assert (sample.tau_edges, sample.dominated) == (tau_edges, False)


def test_emergence_law_draw_matches_reference_law():
    # where the component comes first, tau_edges is drawn from the passage
    # law; the oracle follows the flips.  By DKW each empirical CDF is within
    # sqrt(log(4/a) / (2 reps)) of the true one except with probability a/2
    d = _d(80)
    reps = 400
    drawn = [comp.emergence_run(d, 0.3, 0.1, seed=90, replica=r).tau_edges
             for r in range(reps)]
    followed = [_reference_emergence(d, 0.3, 0.1, 90, replica=r)[1] for r in range(reps)]
    assert ks_2samp(drawn, followed).statistic <= 2 * math.sqrt(math.log(4 / 1e-3) / (2 * reps))


def test_emergence_places_settled_passage_by_the_spectral_draw():
    # the first replica whose component comes first, at m edges: the next
    # uniforms of its stream draw tau_m(target), and tau_edges is
    # tau_component plus that draw
    d = _d(80)
    eps, delta, seed = 0.3, 0.1, 90
    cap, threshold = comp._passage_bounds(d, eps, None)
    assert cap == sim.default_hitting_cap(d)
    edge_target = closest_integer(an.c_epsilon(eps + delta) * d.n)
    for r in range(20):
        draws = 0
        stream = comp._uniforms(seed, r)

        def uniform():
            nonlocal draws
            draws += 1
            return stream()

        state, edges = comp.GraphState(d.n), []
        for t, added, key in comp._edge_flips(d, uniform, cap, edges):
            if len(edges) >= edge_target:
                break
            if added:
                state.add_edge(*divmod(key, d.n))
            else:
                state.remove_edge(*divmod(key, d.n))
            if state.largest_component_size() >= threshold:
                break
        m = len(edges)
        if m < edge_target:
            break
    else:
        pytest.fail("no replica whose component comes first")
    rest = sim.replica_rng(seed, r).random(draws + m + edge_target)[draws:]
    passage = an.sample_passage(m, edge_target, d, iter(rest.tolist()).__next__)
    sample = comp.emergence_run(d, eps, delta, seed, replica=r)
    assert (sample.tau_component, sample.edges_censored) == (t, False)
    assert sample.tau_edges == t + passage < cap


def test_emergence_same_addition_dominates():
    # threshold 8 and edge target 10 are often first reached on one
    # addition, which counts as domination
    d = _d(10)
    eps, delta = 0.75, 0.05
    assert comp._passage_bounds(d, eps, None)[1] == 8
    assert closest_integer(an.c_epsilon(eps + delta) * 10) == 10
    same = 0
    for r in range(200):
        tau_component, tau_edges = _reference_emergence(d, eps, delta, 98, replica=r)[:2]
        if tau_component == tau_edges:
            same += 1
            sample = comp.emergence_run(d, eps, delta, seed=98, replica=r)
            assert (sample.tau_component, sample.tau_edges) == (tau_component, tau_edges)
            assert sample.dominated is True
    assert same > 0


def test_emergence_infinite_cap_draws_finite_edge_time():
    d = _d(100)
    for r in range(5):
        sample = comp.emergence_run(d, 0.3, 0.1, seed=99, cap=math.inf, replica=r)
        assert not sample.edges_censored and not sample.component_censored
        assert sample.tau_component <= sample.tau_edges < math.inf
        assert sample.dominated is True


def test_domination_agrees_with_tracked_emergence():
    # the same streams give the same False flags, replica for replica; here
    # many components reach the threshold and shrink back within a few events
    d = _d(100)
    lean = comp.domination_samples(d, 0.3, 0.1, 400, seed=11, cap=15.0)
    tracked = [_reference_emergence(d, 0.3, 0.1, 11, 15.0, r)[2] for r in range(400)]
    assert [x is False for x in lean] == [x is False for x in tracked]
    assert lean.count(False) == 10


def test_domination_censoring_agrees_with_tracked_emergence():
    # most runs reach the component threshold early and decide the cap with
    # one draw from the passage law (about 0.3 censored after that); the
    # oracle follows the edge count to the cap event by event
    d = _d(100)
    cap = 25.0
    reps = 800
    lean = comp.domination_samples(d, 0.2, 0.25, reps, seed=87, cap=cap)
    tracked = [_reference_emergence(d, 0.2, 0.25, 88, cap, r)[2] for r in range(reps)]
    f_lean = sum(x is None for x in lean) / reps
    f_tracked = sum(x is None for x in tracked) / reps
    pooled = (f_lean + f_tracked) / 2
    assert 0.15 <= pooled <= 0.45
    assert abs(f_lean - f_tracked) <= 5 * math.sqrt(pooled * (1 - pooled) * 2 / reps)


@pytest.mark.parametrize("n,eps,delta,cap,seed,reps,seen", [
    # the component comes first, and the passage's all-kept sum settles it
    pytest.param(200, 0.3, 0.1, None, 1, 30, {(False, True)}, id="settled"),
    # some passages settle on that sum; the rest take the count, which
    # keeps them under the cap or censors them
    pytest.param(100, 0.2, 0.25, 25.0, 87, 200, {(False, True), (True, True), (True, None)},
                 id="censored-at-cap"),
    # the law's gate refuses most starts; the draw needs no gate (the id
    # names the walk of the flips that the draw replaced)
    pytest.param(200, 0.02, 0.3, None, 3, 10, {(False, True)}, id="refused-follow-flips"),
    pytest.param(10, 0.75, 0.05, None, 98, 200, {(False, True)}, id="same-addition"),
    pytest.param(100, 0.3, 0.1, 15.0, 11, 150, {(False, False)}, id="many-false"),
])
def test_domination_flag_is_emergence_flag(n, eps, delta, cap, seed, reps, seen, monkeypatch):
    # domination_run gives the flag of the replica's emergence_run, replica
    # for replica, from the same i + j uniforms of the passage draw, though
    # it takes the count (`_rates_below`) only when the all-kept sum of the
    # draw's terms could end past the cap; `seen` lists (count taken, flag)
    # pairs that must occur
    d = _d(n)
    counted = []
    rates_below = an._rates_below
    monkeypatch.setattr(an, "_rates_below", lambda *a: counted.append(a) or rates_below(*a))
    outcomes = set()
    for r in range(reps):
        del counted[:]
        flag = comp.domination_run(d, eps, delta, seed, cap=cap, replica=r)
        outcomes.add((bool(counted), flag))
        assert flag is comp.emergence_run(d, eps, delta, seed, cap=cap, replica=r).dominated
    assert seen <= outcomes


def test_default_cap_flags_never_take_the_count(monkeypatch):
    # at n=200 under the default cap every all-kept sum fits, so a flag
    # never counts rates below its shifts, while emergence_run still does
    d = _d(200)

    def refuse(*args):
        raise AssertionError("the count was taken")

    monkeypatch.setattr(an, "_rates_below", refuse)
    assert [comp.domination_run(d, 0.3, 0.1, 1, replica=r) for r in range(30)] == [True] * 30
    with pytest.raises(AssertionError, match="the count was taken"):
        comp.emergence_run(d, 0.3, 0.1, 1, replica=0)


def test_domination_worker_independence():
    # settled runs draw their cap decision from the replica's own stream
    d = _d(100)
    serial = comp.domination_samples(d, 0.2, 0.25, 40, seed=89, cap=25.0, workers=1)
    parallel = comp.domination_samples(d, 0.2, 0.25, 40, seed=89, cap=25.0, workers=2)
    assert serial == parallel
    assert None in serial and True in serial


def test_domination_rejects_nonpositive_cap():
    d = _d(40)
    for cap in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError):
            comp.domination_run(d, 0.3, 0.1, 1, cap=cap)


# ------------------------------------------------------------ static graphs


def test_static_trivial_sizes():
    assert comp.static_er_largest_component(30, 0, seed=91) == 1
    n = 9
    assert comp.static_er_largest_component(n, n * (n - 1) // 2, seed=92) == n


def test_static_rejects_overfull():
    with pytest.raises(ValueError):
        comp.static_er_largest_component(4, 7, seed=93)
    with pytest.raises(ValueError):
        comp.static_er_largest_component(1, 0, seed=93)


def test_static_dense_and_sparse_branches_return_m_edges():
    # near-complete and very sparse graphs through the same subset draw
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
