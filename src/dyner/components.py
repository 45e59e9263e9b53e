"""Labeled-graph simulation with live largest-component tracking.

Unlike the aggregate edge-count chain, this module keeps per-edge identity:
deletions remove a uniform present edge, insertions add a uniform absent
pair, which reproduces the per-pair on-off dynamics exactly.  One event
loop, the `_edge_flips` generator, drives every labeled sampler; each
sampler only adds its own stop rule.  Components are maintained
incrementally by `GraphState`: insertions merge the smaller component into
the larger, deletions repair connectivity with a bidirectional search over
the affected component only.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .analytic import c_epsilon
from .model import DerivedParams, closest_integer
from .simulate import HittingSample, _uniforms, default_hitting_cap, replica_rng, run_replicas

__all__ = [
    "GraphEvent",
    "GraphState",
    "EmergenceSample",
    "largest_component_size",
    "simulate_graph",
    "sample_component_hitting",
    "emergence_run",
    "emergence_samples",
    "domination_run",
    "domination_samples",
    "static_er_largest_component",
    "static_largest_samples",
]


@dataclass(frozen=True, slots=True)
class GraphEvent:
    """One edge flip: the pair touched plus post-event bookkeeping."""

    time: float
    added: bool
    u: int
    v: int
    edge_count: int
    largest: int


class GraphState:
    """Undirected labeled graph with incremental component bookkeeping.

    Components are identified by opaque integer labels; `members[label]` is
    the vertex set, `comp_of[v]` the label of v's component.  The largest
    component size is maintained against a multiset of component sizes so
    queries are O(1).
    """

    __slots__ = (
        "n", "adj", "comp_of", "members", "edges", "time",
        "_edge_pos", "_size_counts", "_largest", "_next_label",
    )

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got {n}")
        self.n = n
        self.adj = [set() for _ in range(n)]
        self.comp_of = list(range(n))
        self.members = {v: {v} for v in range(n)}
        self.edges = []  # list of (u, v) with u < v
        self.time = 0.0
        self._edge_pos = {}
        self._size_counts = {1: n}
        self._largest = 1
        self._next_label = n

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def largest_component_size(self) -> int:
        return self._largest

    def _count_change(self, size: int, delta: int) -> None:
        counts = self._size_counts
        new = counts.get(size, 0) + delta
        if new:
            counts[size] = new
        else:
            del counts[size]

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("self-loops are not allowed")
        if u > v:
            u, v = v, u
        if v in self.adj[u]:
            raise ValueError(f"edge ({u}, {v}) already present")
        self._edge_pos[(u, v)] = len(self.edges)
        self.edges.append((u, v))
        self.adj[u].add(v)
        self.adj[v].add(u)
        la, lb = self.comp_of[u], self.comp_of[v]
        if la == lb:
            return
        a, b = self.members[la], self.members[lb]
        if len(a) < len(b):
            la, lb, a, b = lb, la, b, a
        self._count_change(len(a), -1)
        self._count_change(len(b), -1)
        comp_of = self.comp_of
        for w in b:
            comp_of[w] = la
        a.update(b)
        del self.members[lb]
        merged = len(a)
        self._count_change(merged, +1)
        if merged > self._largest:
            self._largest = merged

    def remove_edge(self, u: int, v: int) -> None:
        if u > v:
            u, v = v, u
        pos = self._edge_pos.pop((u, v), None)
        if pos is None:
            raise ValueError(f"edge ({u}, {v}) not present")
        last = self.edges.pop()
        if pos < len(self.edges):
            self.edges[pos] = last
            self._edge_pos[last] = pos
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        side = self._split_side(u, v)
        if side is None:
            return  # still connected through another path
        label = self.comp_of[u]
        old = self.members[label]
        old_size = len(old)
        new_label = self._next_label
        self._next_label = new_label + 1
        comp_of = self.comp_of
        for w in side:
            comp_of[w] = new_label
            old.discard(w)
        self.members[new_label] = side
        self._count_change(old_size, -1)
        self._count_change(len(old), +1)
        self._count_change(len(side), +1)
        if old_size == self._largest and self._size_counts.get(old_size, 0) == 0:
            self._largest = max(self._size_counts)

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
        seen = [False] * self.n
        sizes = []
        for v0 in range(self.n):
            if seen[v0]:
                continue
            comp = {v0}
            seen[v0] = True
            queue = deque((v0,))
            label = self.comp_of[v0]
            while queue:
                x = queue.popleft()
                for w in self.adj[x]:
                    if not seen[w]:
                        seen[w] = True
                        comp.add(w)
                        queue.append(w)
            sizes.append(len(comp))
            assert comp == self.members[label], f"component of {v0} drifted"
            assert all(self.comp_of[w] == label for w in comp)
        assert sorted(sizes) == sorted(len(m) for m in self.members.values())
        assert self._largest == max(sizes), (self._largest, max(sizes))


def largest_component_size(state: GraphState) -> int:
    """Exact size of the largest connected component."""
    return state.largest_component_size()


def _edge_flips(d: DerivedParams, uniform, horizon: float, edges: list, state=None):
    """The event loop of the labeled chain: yields (time, added, key) per flip.

    `edges` holds the keys a*n+b (a < b) of the present edges, is updated in
    place with swap-remove, and must start empty.  Deletions remove a
    uniform present edge; insertions draw ordered pairs until one is absent,
    which is exact at any density.  When `state` is given, each flip is also
    applied to it.  The generator stops when the next event would pass
    `horizon`.
    """
    n, alpha, N = d.n, d.alpha, d.N
    birth_scale = d.beta / (n - 1)
    pos = {}
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
            key = edges[int(uniform() * m)]
            last = edges.pop()
            idx = pos.pop(key)
            if key != last:
                edges[idx] = last
                pos[last] = idx
            if state is not None:
                state.remove_edge(*divmod(key, n))
            added = False
        else:
            while True:
                a = int(uniform() * n)
                b = int(uniform() * (n - 1))
                if b >= a:
                    b += 1
                key = a * n + b if a < b else b * n + a
                if key not in pos:
                    break
            pos[key] = m
            edges.append(key)
            if state is not None:
                state.add_edge(a, b)
            added = True
        if state is not None:
            state.time = t
        yield t, added, key


def simulate_graph(
    d: DerivedParams,
    horizon: float,
    seed: int,
    observers=(),
    replica: int = 0,
    verify: bool = False,
) -> GraphState:
    """Run the labeled dynamics from the empty graph up to the horizon.

    Observers are called synchronously with each GraphEvent.  With
    verify=True the incremental component bookkeeping is checked against a
    full recomputation after every event (test mode; n <= 200 recommended).
    """
    if not (horizon > 0):
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    state = GraphState(d.n)
    for t, added, key in _edge_flips(d, _uniforms(seed, replica), horizon, [], state):
        if verify:
            state.verify()
        if observers:
            a, b = divmod(key, d.n)
            event = GraphEvent(
                time=t, added=added, u=a, v=b,
                edge_count=state.edge_count, largest=state._largest,
            )
            for ob in observers:
                ob(event)
    state.time = horizon
    return state


def _component_threshold(eps: float, n: int) -> int:
    # ceil(eps n) with a guard against float crumbs just above an integer
    return math.ceil(eps * n - 1e-9)


def sample_component_hitting(
    d: DerivedParams, eps: float, seed: int, cap: float | None = None, replica: int = 0
) -> HittingSample:
    """First time the largest component reaches ceil(eps n), from the empty graph."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    if cap is None:
        cap = default_hitting_cap(d)
    if not (cap > 0):
        raise ValueError(f"cap must be positive, got {cap!r}")
    threshold = _component_threshold(eps, d.n)
    if threshold <= 1:
        return HittingSample(0, threshold, 0.0, False, cap, seed, replica)
    state = GraphState(d.n)
    for t, _, _ in _edge_flips(d, _uniforms(seed, replica), cap, [], state):
        if state._largest >= threshold:
            return HittingSample(0, threshold, t, False, cap, seed, replica)
    return HittingSample(0, threshold, cap, True, cap, seed, replica)


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

    eps: float
    delta: float
    threshold: int
    edge_target: int
    tau_component: float
    component_censored: bool
    tau_edges: float
    edges_censored: bool
    dominated: bool | None
    cap: float
    seed: int
    replica: int


def emergence_run(
    d: DerivedParams,
    eps: float,
    delta: float,
    seed: int,
    cap: float | None = None,
    replica: int = 0,
) -> EmergenceSample:
    """One dynamic run recording both emergence times and the domination flag."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    if not (delta > 0.0 and eps + delta < 1.0):
        raise ValueError(f"need delta > 0 with eps + delta < 1, got delta={delta!r}")
    if cap is None:
        cap = default_hitting_cap(d)
    if not (cap > 0):
        raise ValueError(f"cap must be positive, got {cap!r}")
    threshold = _component_threshold(eps, d.n)
    edge_target = closest_integer(c_epsilon(eps + delta) * d.n)
    if edge_target > d.N:
        raise ValueError(f"edge target {edge_target} exceeds the pair count {d.N}")
    state = GraphState(d.n)
    tau_component = None if threshold > 1 else 0.0
    tau_edges = None
    dominated = None
    for t, _, _ in _edge_flips(d, _uniforms(seed, replica), cap, [], state):
        if tau_component is None and state._largest >= threshold:
            tau_component = t
        if tau_edges is None and state.edge_count >= edge_target:
            tau_edges = t
            dominated = tau_component is not None and tau_component <= t
        if tau_component is not None and tau_edges is not None:
            break
    return EmergenceSample(
        eps=eps,
        delta=delta,
        threshold=threshold,
        edge_target=edge_target,
        tau_component=cap if tau_component is None else tau_component,
        component_censored=tau_component is None,
        tau_edges=cap if tau_edges is None else tau_edges,
        edges_censored=tau_edges is None,
        dominated=dominated,
        cap=cap,
        seed=seed,
        replica=replica,
    )


def _emergence_one(args, replica):
    d, eps, delta, seed, cap = args
    return emergence_run(d, eps, delta, seed, cap=cap, replica=replica)


def _static_one(args, replica):
    n, m, seed = args
    return static_er_largest_component(n, m, seed, replica=replica)


def emergence_samples(
    d: DerivedParams, eps: float, delta: float, replicas: int, seed: int,
    cap: float | None = None, workers: int = 1,
) -> list:
    if cap is None:
        cap = default_hitting_cap(d)
    return run_replicas(_emergence_one, (d, eps, delta, seed, cap), replicas, workers)


_DOMINATION_CHECK_EVERY = 256


def domination_run(
    d: DerivedParams,
    eps: float,
    delta: float,
    seed: int,
    cap: float | None = None,
    replica: int = 0,
) -> bool | None:
    """Pathwise domination flag: has the largest component reached
    ceil(eps n) by the first time the edge count hits [c_{eps+delta} n]?
    None when the cap intervenes first.

    Same labeled dynamics as emergence_run, but bookkeeping is stripped to
    the edge set, which keeps runs with exponentially large probe times
    (supercritical edge targets) affordable.  Component sizes are checked
    exactly at the probe instant and at a fixed event cadence before it;
    the cadence can only under-report domination, never inflate it.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    if not (delta > 0.0 and eps + delta < 1.0):
        raise ValueError(f"need delta > 0 with eps + delta < 1, got delta={delta!r}")
    if cap is None:
        cap = default_hitting_cap(d)
    threshold = _component_threshold(eps, d.n)
    edge_target = closest_integer(c_epsilon(eps + delta) * d.n)
    if edge_target > d.N:
        raise ValueError(f"edge target {edge_target} exceeds the pair count {d.N}")
    if edge_target == 0:
        return threshold <= 1
    n = d.n
    edges = []
    reached = threshold <= 1
    until_check = _DOMINATION_CHECK_EVERY
    for _, added, _ in _edge_flips(d, _uniforms(seed, replica), cap, edges):
        if added and len(edges) == edge_target:
            return reached or _largest_from_edge_keys(edges, n) >= threshold
        if not reached:
            until_check -= 1
            if until_check <= 0:
                until_check = _DOMINATION_CHECK_EVERY
                reached = _largest_from_edge_keys(edges, n) >= threshold
    return None


def _largest_from_edge_keys(edges, n: int) -> int:
    uf = _UnionFind(n)
    for key in edges:
        uf.union(key // n, key % n)
    return uf.largest


def _domination_one(args, replica):
    d, eps, delta, seed, cap = args
    return domination_run(d, eps, delta, seed, cap=cap, replica=replica)


def domination_samples(
    d: DerivedParams, eps: float, delta: float, replicas: int, seed: int,
    cap: float | None = None, workers: int = 1,
) -> list:
    if cap is None:
        cap = default_hitting_cap(d)
    return run_replicas(_domination_one, (d, eps, delta, seed, cap), replicas, workers)


class _UnionFind:
    """Classic union-find with path compression and union by size."""

    __slots__ = ("parent", "size", "largest")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.largest = 1

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        if self.size[ra] > self.largest:
            self.largest = self.size[ra]


def static_er_largest_component(n: int, m: int, seed: int, replica: int = 0) -> int:
    """Largest component of a uniform graph on n vertices with m distinct edges."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    pairs = n * (n - 1) // 2
    if not (0 <= m <= pairs):
        raise ValueError(f"edge count must be in [0, {pairs}], got {m}")
    rng = replica_rng(seed, replica)
    if m == 0:
        return 1
    uf = _UnionFind(n)
    if 2 * m <= pairs:
        chosen = set()
        while len(chosen) < m:
            a = int(rng.integers(n))
            b = int(rng.integers(n - 1))
            if b >= a:
                b += 1
            key = (a * n + b) if a < b else (b * n + a)
            if key not in chosen:
                chosen.add(key)
                uf.union(a, b)
    else:
        # dense case: permute all pair indices and decode the first m
        idx = rng.permutation(pairs)[:m]
        starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
        rows = np.searchsorted(starts, idx, side="right") - 1
        cols = idx - starts[rows] + rows + 1
        for a, b in zip(rows.tolist(), cols.tolist()):
            uf.union(a, b)
    return uf.largest


def static_largest_samples(
    n: int, m: int, replicas: int, seed: int, workers: int = 1
) -> list:
    return run_replicas(_static_one, (n, m, seed), replicas, workers)
