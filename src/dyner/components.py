"""Labeled-graph simulation and component first-passage times.

Unlike the aggregate edge-count chain, this module keeps per-edge identity:
deletions remove a uniform present edge, insertions add a uniform absent
pair, which reproduces the per-pair on-off dynamics exactly.  One event
loop, the `_edge_flips` generator, drives every labeled sampler.
`simulate_graph` applies each flip to a `GraphState`, which maintains
components incrementally, each as one vertex set shared by its vertices:
insertions merge the smaller set into the larger, deletions repair
connectivity with a bidirectional search over the affected component only,
and a list of component counts indexed by size keeps the largest size.
The first-passage samplers share one driver, `_component_passage`, which
bounds the largest component by a union-find that ignores deletions, fed
the added edges one at a time, and rebuilds it only when the bound reaches
the threshold.  Emergence runs and domination flags share one driver,
`_emergence`: where the component comes first, one draw from two killed
spectra (`analytic.sample_passage`) settles the edge passage.  A flag
thins the draw's terms only when their sum all kept could end past the
cap, since that sum bounds the draw.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .analytic import _passage_terms, _thinned_sum, c_epsilon
from .model import DerivedParams, closest_integer
from .simulate import HittingSample, default_hitting_cap, replica_rng, run_replicas

__all__ = [
    "GraphEvent",
    "GraphState",
    "EmergenceSample",
    "simulate_graph",
    "sample_component_hitting",
    "emergence_run",
    "emergence_samples",
    "domination_run",
    "domination_samples",
    "static_er_largest_component",
    "static_largest_samples",
]


class GraphEvent(NamedTuple):
    """One edge flip: the pair touched plus post-event bookkeeping."""

    time: float
    added: bool
    u: int
    v: int
    edge_count: int
    largest: int


class GraphState:
    """Undirected labeled graph with incremental component bookkeeping.

    A component is its vertex set: `comp_of[v]` is the set that holds v,
    one object shared by every vertex of the component.  The largest
    component size is kept against a list of component counts indexed by
    size, so queries are O(1); after a split it is found by scanning down
    from its old value.
    """

    __slots__ = ("n", "adj", "comp_of", "edge_count", "time", "_size_counts", "_largest")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got {n}")
        self.n = n
        self.adj = [set() for _ in range(n)]
        self.comp_of = [{v} for v in range(n)]
        self.edge_count = 0
        self.time = 0.0
        self._size_counts = [0] * (n + 1)
        self._size_counts[1] = n
        self._largest = 1

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def largest_component_size(self) -> int:
        return self._largest

    def _bad_pair(self, u: int, v: int) -> ValueError:
        if u == v:
            return ValueError("self-loops are not allowed")
        return ValueError(f"edge ({u}, {v}) has a vertex outside [0, {self.n})")

    def add_edge(self, u: int, v: int) -> None:
        if u > v:
            u, v = v, u
        if not 0 <= u < v < self.n:
            raise self._bad_pair(u, v)
        adj_u, adj_v = self.adj[u], self.adj[v]
        if v in adj_u:
            raise ValueError(f"edge ({u}, {v}) already present")
        self.edge_count += 1
        adj_u.add(v)
        adj_v.add(u)
        comp_of = self.comp_of
        a, b = comp_of[u], comp_of[v]
        if a is b:
            return
        if len(a) < len(b):
            a, b = b, a
        counts = self._size_counts
        counts[len(a)] -= 1
        counts[len(b)] -= 1
        for w in b:
            comp_of[w] = a
        a |= b
        merged = len(a)
        counts[merged] += 1
        if merged > self._largest:
            self._largest = merged

    def remove_edge(self, u: int, v: int) -> None:
        if u > v:
            u, v = v, u
        if not 0 <= u < v < self.n:
            raise self._bad_pair(u, v)
        adj = self.adj
        if v not in adj[u]:
            raise ValueError(f"edge ({u}, {v}) not present")
        self.edge_count -= 1
        adj[u].discard(v)
        adj[v].discard(u)
        side = self._split_side(u, v)
        if side is None:
            return  # still connected through another path
        comp_of = self.comp_of
        old = comp_of[u]
        old_size = len(old)
        for w in side:
            comp_of[w] = side
        old -= side
        counts = self._size_counts
        counts[old_size] -= 1
        counts[len(old)] += 1
        counts[len(side)] += 1
        largest = self._largest
        while not counts[largest]:
            largest -= 1
        self._largest = largest

    def _split_side(self, u: int, v: int) -> set | None:
        """After removing (u, v): the vertex set split off, or None if still connected.

        Bidirectional search that alternates one vertex expansion per side;
        it stops as soon as the frontiers meet (connected) or one side is
        exhausted (that side is the new component), so the cost is on the
        order of the smaller side.
        """
        adj = self.adj
        if not adj[u]:
            return {u}
        if not adj[v]:
            return {v}
        seen_a, seen_b = {u}, {v}
        queue_a, queue_b = deque((u,)), deque((v,))
        while True:
            if not queue_a:
                return seen_a
            x = queue_a.popleft()
            for w in adj[x]:
                if w in seen_b:
                    return None
                if w not in seen_a:
                    seen_a.add(w)
                    queue_a.append(w)
            seen_a, seen_b = seen_b, seen_a
            queue_a, queue_b = queue_b, queue_a

    def verify(self) -> None:
        """Recompute components from scratch and compare; AssertionError on drift."""
        comp_of = self.comp_of
        seen = [False] * self.n
        sizes = []
        for v0 in range(self.n):
            if seen[v0]:
                continue
            comp = {v0}
            seen[v0] = True
            queue = deque((v0,))
            while queue:
                x = queue.popleft()
                for w in self.adj[x]:
                    if not seen[w]:
                        seen[w] = True
                        comp.add(w)
                        queue.append(w)
            sizes.append(len(comp))
            owner = comp_of[v0]
            assert comp == owner, f"component of {v0} drifted"
            assert all(comp_of[w] is owner for w in comp), f"component of {v0} is not shared"
        assert 2 * self.edge_count == sum(len(a) for a in self.adj)
        counts = [0] * (self.n + 1)
        for size in sizes:
            counts[size] += 1
        assert self._size_counts == counts, "component size counts drifted"
        assert self._largest == max(sizes), (self._largest, max(sizes))


def _uniforms(seed: int, replica: int):
    """Callable returning the replica's uniforms one Python float at a time.

    The Generator is read in blocks of 4096 doubles.  PCG64 double draws do
    not depend on the draw size (`random(4096)` equals 16 draws of
    `random(256)`), so the block size only sets how far ahead the stream is
    read, not the values.
    """
    rng = replica_rng(seed, replica)
    return chain.from_iterable(iter(lambda: rng.random(4096).tolist(), None)).__next__


def _edge_flips(d: DerivedParams, uniform, horizon: float, edges: list):
    """The event loop of the labeled chain: yields (time, added, key) per flip.

    `edges` holds the keys a*n+b (a < b) of the present edges, is updated in
    place with swap-remove before each yield, and must start empty.
    Deletions remove a uniform present edge; insertions draw ordered pairs
    until one is absent, which is exact at any density.  The generator stops
    when the next event would pass `horizon`.
    """
    n, alpha, N = d.n, d.alpha, d.N
    birth_scale = d.beta / (n - 1)
    present = set()
    t = 0.0
    log_ = math.log
    while True:
        m = len(edges)
        del_rate = m * alpha
        tot = del_rate + (N - m) * birth_scale
        t += -log_(1.0 - uniform()) / tot
        if t > horizon:
            return
        if uniform() * tot < del_rate:
            idx = int(uniform() * m)
            key = edges[idx]
            edges[idx] = edges[-1]
            edges.pop()
            present.remove(key)
            yield t, False, key
        else:
            while True:
                a = int(uniform() * n)
                b = int(uniform() * (n - 1))
                if b >= a:
                    b += 1
                key = a * n + b if a < b else b * n + a
                if key not in present:
                    break
            present.add(key)
            edges.append(key)
            yield t, True, key


def simulate_graph(
    d: DerivedParams,
    horizon: float,
    seed: int,
    observers=(),
    replica: int = 0,
) -> GraphState:
    """Run the labeled dynamics from the empty graph up to the horizon.

    Observers are called synchronously with each GraphEvent.
    """
    if not (0 < horizon < math.inf):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    n = d.n
    state = GraphState(n)
    add, remove = state.add_edge, state.remove_edge
    for t, added, key in _edge_flips(d, _uniforms(seed, replica), horizon, []):
        a, b = divmod(key, n)
        if added:
            add(a, b)
        else:
            remove(a, b)
        if observers:
            event = GraphEvent(t, added, a, b, state.edge_count, state._largest)
            for ob in observers:
                ob(event)
    state.time = horizon
    return state


def _passage_bounds(d: DerivedParams, eps: float, cap: float | None) -> tuple:
    """(cap, threshold) of a component passage: the cap, the default one when
    None, and the threshold ceil(eps n); checks eps and the cap."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    if cap is None:
        cap = default_hitting_cap(d)
    if not (cap > 0):
        raise ValueError(f"cap must be positive, got {cap!r}")
    # ceil(eps n) with a guard against float crumbs just above an integer
    return cap, math.ceil(eps * d.n - 1e-9)


def _component_passage(flips, edges: list, n: int, threshold: int, edge_target=math.inf):
    """Walk `flips`, which keep `edges`, to the first event whose largest
    component has `threshold` vertices; returns (tau_component, tau_edges).

    tau_edges is the first event at which the edge count reaches
    `edge_target`, if that comes first; either is None when the flips end
    before it.  The bound, a union-find of every edge added since its last
    rebuild, bounds the largest component of every graph since then; it is
    rebuilt from the present edges only when it reaches the threshold.
    Between rebuilds its largest set is below the threshold, so `union`
    stops at the added edge whose merged set reaches it.
    """
    if threshold <= 1:
        return 0.0, None
    t = tau_edges = None

    def added_keys():
        nonlocal t, tau_edges
        for t, added, key in flips:
            if added:
                if tau_edges is None and len(edges) >= edge_target:
                    tau_edges = t
                yield key

    keys = added_keys()
    bound = _UnionFind(n)
    while bound.union(keys, threshold) >= threshold:
        bound = _UnionFind(n, edges)
        if bound.largest >= threshold:
            return t, tau_edges
    return None, tau_edges


def sample_component_hitting(
    d: DerivedParams, eps: float, seed: int, cap: float | None = None, replica: int = 0
) -> HittingSample:
    """First time the largest component reaches ceil(eps n), from the empty graph."""
    cap, threshold = _passage_bounds(d, eps, cap)
    edges = []
    flips = _edge_flips(d, _uniforms(seed, replica), cap, edges)
    t, _ = _component_passage(flips, edges, d.n, threshold)
    return HittingSample(cap if t is None else t, t is None)


@dataclass(frozen=True, slots=True)
class EmergenceSample:
    """Paired observation of component emergence and the edge-count proxy.

    tau_component  first time the largest component reaches ceil(eps n)
    tau_edges      first time the edge count reaches [c_{eps+delta} n]
    dominated      pathwise domination tau_component <= tau_edges: the
                   largest component had already reached ceil(eps n) by the
                   time the edge count first hit its target (None when
                   tau_edges was censored)
    """

    tau_component: float
    component_censored: bool
    tau_edges: float
    edges_censored: bool
    dominated: bool | None


def _emergence(
    d: DerivedParams, eps: float, delta: float, seed: int, cap: float | None,
    replica: int, flag_only: bool = False,
) -> tuple:
    """The run behind emergence_run and domination_run: (cap, tau_component,
    tau_edges, dominated), a time None when censored.

    The passage draw sums terms E_k/lambda_k with some of the first m set to
    0, so U, their sum all kept, bounds it.  With `flag_only`, a passage with
    tau_component + U <= cap is not thinned, and tau_edges is then that
    bound, which gives the same flag.
    """
    cap, threshold = _passage_bounds(d, eps, cap)
    if not (delta > 0.0 and eps + delta < 1.0):
        raise ValueError(f"need delta > 0 with eps + delta < 1, got delta={delta!r}")
    edge_target = closest_integer(c_epsilon(eps + delta) * d.n)
    if edge_target > d.N:
        raise ValueError(f"edge target {edge_target} exceeds the pair count {d.N}")
    uniform, edges = _uniforms(seed, replica), []
    flips = _edge_flips(d, uniform, cap, edges)
    tau_component, tau_edges = _component_passage(flips, edges, d.n, threshold, edge_target)
    if tau_component is not None and tau_edges is None:
        m = len(edges)
        terms, shifts = _passage_terms(m, edge_target, d, uniform)
        t = tau_component + float(terms.sum())  # every term kept: + U
        if not (flag_only and t <= cap):
            t = tau_component + _thinned_sum(m, d, terms, shifts)
        tau_edges = t if t <= cap else None
    dominated = None if tau_edges is None else (
        tau_component is not None and tau_component <= tau_edges)
    return cap, tau_component, tau_edges, dominated


def emergence_run(
    d: DerivedParams,
    eps: float,
    delta: float,
    seed: int,
    cap: float | None = None,
    replica: int = 0,
) -> EmergenceSample:
    """One dynamic run recording both emergence times and the domination flag.

    tau_edges is read off the flips when the edge count comes first.  When
    the component comes first, at m edges, the edge count, a Markov chain on
    its own, ends its passage after one draw of tau_m(target) from the
    replica's uniforms (`analytic.sample_passage`), censored past the cap.
    """
    cap, tau_component, tau_edges, dominated = _emergence(d, eps, delta, seed, cap, replica)
    return EmergenceSample(
        cap if tau_component is None else tau_component, tau_component is None,
        cap if tau_edges is None else tau_edges, tau_edges is None, dominated)


def emergence_samples(
    d: DerivedParams, eps: float, delta: float, replicas: int, seed: int,
    cap: float | None = None, workers: int = 1,
) -> list:
    return run_replicas(emergence_run, (d, eps, delta, seed, cap), replicas, workers)


def domination_run(
    d: DerivedParams,
    eps: float,
    delta: float,
    seed: int,
    cap: float | None = None,
    replica: int = 0,
) -> bool | None:
    """Pathwise domination flag: has the largest component reached ceil(eps n)
    by the first time the edge count hits [c_{eps+delta} n]?  None when the cap
    intervenes first.  The `dominated` field of the replica's emergence_run,
    from the same uniforms; the passage's thinning, which costs a pass over
    the generator killed at m per draw, is taken only when its all-kept sum
    could end past the cap."""
    return _emergence(d, eps, delta, seed, cap, replica, flag_only=True)[3]


def domination_samples(
    d: DerivedParams, eps: float, delta: float, replicas: int, seed: int,
    cap: float | None = None, workers: int = 1,
) -> list:
    return run_replicas(domination_run, (d, eps, delta, seed, cap), replicas, workers)


class _UnionFind:
    """Union-find over n vertices with path halving and union by size."""

    __slots__ = ("n", "parent", "size", "largest")

    def __init__(self, n: int, keys=()):
        self.n = n
        self.parent = list(range(n))
        self.size = [1] * n
        self.largest = 1
        self.union(keys)

    def union(self, keys, stop=math.inf) -> int:
        """Join the ends of each edge key a*n+b; returns the largest size.

        Stops after the join that brings the largest size to `stop`.
        """
        n, parent, size, largest = self.n, self.parent, self.size, self.largest
        for key in keys:
            a, b = divmod(key, n)
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                if size[a] > largest:
                    largest = size[a]
                    if largest >= stop:
                        break
        self.largest = largest
        return largest


def static_er_largest_component(n: int, m: int, seed: int, replica: int = 0) -> int:
    """Largest component of a uniform graph on n vertices with m distinct edges."""
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    pairs = n * (n - 1) // 2
    if not (0 <= m <= pairs):
        raise ValueError(f"edge count must be in [0, {pairs}], got {m}")
    # a uniform m-subset of the pair indices, decoded to (row, col) with row < col
    idx = replica_rng(seed, replica).choice(pairs, size=m, replace=False)
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    rows = np.searchsorted(starts, idx, side="right") - 1
    cols = idx - starts[rows] + rows + 1
    return _UnionFind(n, (rows * n + cols).tolist()).largest


def static_largest_samples(
    n: int, m: int, replicas: int, seed: int, workers: int = 1
) -> list:
    return run_replicas(static_er_largest_component, (n, m, seed), replicas, workers)
