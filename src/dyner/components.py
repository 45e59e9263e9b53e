"""Labeled-graph simulation and component first-passage times.

Unlike the aggregate edge-count chain, this module keeps per-edge identity:
deletions remove a uniform present edge, insertions add a uniform absent
pair, which reproduces the per-pair on-off dynamics exactly.  The event
loop runs in C, flips and component bound in one function compiled on
first use (`_PASSAGE_SOURCE`, driven by `_run_compiled`) on the replica's
PCG64, seeded in C; with no `cc`, no `unsigned __int128` or n above
`_PASSAGE_MAX_N`, the `_edge_flips` generator, its reference, runs the
same flips in Python from the same uniforms.  The
first-passage samplers share one driver, `_passage`: the component passage
bounds the largest component by a union-find that ignores deletions, fed
the added edges one at a time, and rebuilds it only when the bound reaches
the threshold; in Python it is `_edge_flips` feeding `_component_passage`.
`simulate_graph` takes its flips from the compiled passage's flip log, a
passage to the horizon whose threshold is never reached; the per-flip
bookkeeping its observers read, the edge count and the largest component,
is kept in C too (`components`, one call per chunk of the log), and the
returned `GraphState` is built once from the edges present at the horizon.
`GraphState`, the returned graph and the reference of that bookkeeping,
maintains components incrementally, each as one vertex set shared by its
vertices: insertions merge the smaller set into the larger, deletions
repair connectivity with a bidirectional search over the affected
component only, and a list of component counts indexed by size keeps the
largest size; it applies each flip itself where there is no compiled
passage.  Emergence runs and
domination flags share one driver, `_emergence`: where the component comes
first, one draw from two killed spectra (`analytic.sample_passage`) settles
the edge passage, reading on from the passage's first unread uniform.  A
flag thins the draw's terms only when their sum all kept could end past the
cap, since that sum bounds the draw.  The static `G(n, m)` reference,
`static_er_largest_component`, joins its m drawn pairs in the same compiled
library (`largest_of_pairs`), or in `_UnionFind` where `_compiled_passage`
gives none.
"""

import math
import sys
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import simulate
from .analytic import _passage_terms, _thinned_sum, c_epsilon
from .model import DerivedParams, closest_integer
from .simulate import HittingSample, _replica_key, _resolve_cap, replica_rng, run_replicas

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


_BLOCK = 4096  # doubles drawn from a Generator at a time, after its first blocks


def _uniforms(seed: int, replica: int):
    """Callable returning the replica's uniforms one Python float at a time."""
    return _stream(lambda: replica_rng(seed, replica))


def _stream(generator):
    """Callable returning the uniforms of the Generator that `generator()`
    builds on the first call, one at a time.

    The Generator is the first item of `iter(generator, None)`, which the
    endless block loop never reads again, and is read in blocks of 256
    doubles growing 4-fold to `_BLOCK`.  PCG64 double draws do not depend on
    the draw size (`random(4096)` equals 16 draws of `random(256)`), so the
    block sizes only set how far ahead the stream is read, not the values.
    """
    blocks = (memoryview(rng.random(size)) for rng in iter(generator, None)
              for size in chain((256, 1024), repeat(_BLOCK)))
    return chain.from_iterable(blocks).__next__


def _generator_at(key, raw):
    """The Generator keyed by `key` at the PCG64 (state, inc) of `raw`, a struct pcg's bytes."""
    rng = simulate._key_generator(key)
    state, inc = (int.from_bytes(raw[i:i + 16], sys.byteorder) for i in (0, 16))
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


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

    Observers are called synchronously with each GraphEvent.  Where
    `_compiled_passage` gives the compiled passage, the flips are its flip
    log (`_run_compiled`), run to the horizon with the threshold n + 1,
    which no component reaches, and the events' largest components come
    from the compiled `components`, one call per chunk of the log
    (`_graph_events`); with no observers no log is kept.  The returned
    `GraphState` is then built once from the edges present at the horizon.
    Elsewhere the flips come from `_edge_flips` and each is applied to the
    `GraphState`, the reference, with the same flips, graph and events.
    """
    if not (0 < horizon < math.inf):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    n = d.n
    state = GraphState(n)
    compiled = _compiled_passage(n)
    if compiled is None:
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
    else:
        edges = []
        _run_compiled(compiled, d, _replica_key(seed, replica), horizon, n + 1,
                      on_flips=_graph_events(compiled, n, observers) if observers else None,
                      present_edges=edges)
        for key in edges:
            state.add_edge(*divmod(key, n))
    state.time = horizon
    return state


def _graph_events(compiled, n: int, observers):
    """The `on_flips` of a compiled `simulate_graph` run: applies each chunk
    of the flip log to a component state that the run owns, with the
    compiled `components`, and calls the observers with each flip's
    GraphEvent, its edge count a running sum of the flips' +1 and -1.

    The state is the adjacency bits, n rows of `words` uint64 each, and
    7n + 3 ints of labels, sizes, counts by size and search space (see
    `components`); every buffer belongs to the run, since the call runs
    without the interpreter lock.
    """
    import ctypes

    words = -(-n // 64)
    rows = np.zeros(n * words, np.uint64)
    comps = np.zeros(7 * n + 3, np.intc)
    m = 0

    def logged(times, keys):
        nonlocal m
        largest = np.empty(len(keys), np.intc)
        compiled.components(n, words, ctypes.c_void_p(keys.ctypes.data), len(keys),
                            ctypes.c_void_p(largest.ctypes.data),
                            ctypes.c_void_p(rows.ctypes.data), ctypes.c_void_p(comps.ctypes.data))
        added = keys > 0
        counts = np.where(added, 1, -1).cumsum() + m
        m = int(counts[-1])
        a, b = np.divmod(np.abs(keys), n)
        for event in map(GraphEvent._make, zip(times.tolist(), added.tolist(), a.tolist(),
                                               b.tolist(), counts.tolist(), largest.tolist())):
            for ob in observers:
                ob(event)

    return logged


def _passage_bounds(d: DerivedParams, eps: float, cap: float | None) -> tuple:
    """(cap, threshold) of a component passage: the resolved cap and the
    threshold ceil(eps n); checks eps, then the cap."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    # ceil(eps n) with a guard against float crumbs just above an integer
    return _resolve_cap(d, cap), math.ceil(eps * d.n - 1e-9)


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


# The compiled form of `_edge_flips` feeding `_component_passage`, loaded on a
# run's first use by `simulate._compiled_walk`.  `passage` runs the flips from
# the state its last call left, drawing from the PCG64 whose key and struct
# pcg `stream` holds (`simulate._PCG_SOURCE`), and returns FOUND when the
# largest component reaches the threshold (tau_component is time[0]), CAPPED
# when the next event would pass the horizon, GROW when the edge array is
# full at an event's start and LOGGED when the flip log is full there; in the
# last two nothing of the event is drawn, so the caller grows the array or
# empties the log and calls again.  rate holds alpha, beta/(n-1), the horizon
# and the edge target; time holds t and tau_edges (NaN until set); count
# holds the edge count m, the bound's largest set (0 before the first call)
# and the number of flips logged.  present has a bit per key a*n+b; parent
# and size are the union-find bound, rebuilt from the m edges when it reaches
# the threshold.  The flip log, kept when log_time is not NULL, takes each
# finished event's time and key, negated for a deletion.  The same library
# serves `static_er_largest_component` through `largest_of_pairs` and
# `simulate_graph`'s observers through `components`; `passage` stays the
# last function: `simulate._library_path` names the library by it.
_PASSAGE_SOURCE = simulate._PCG_SOURCE + """
#include <math.h>

enum { FOUND, CAPPED, GROW, LOGGED };

static int find(int *parent, int a)
{
    while (parent[a] != a) {
        parent[a] = parent[parent[a]];
        a = parent[a];
    }
    return a;
}

/* joins the sets of a and b by size; returns the new set's size, or 0 when
   one set held both */
static int join(int *parent, int *size, int a, int b)
{
    a = find(parent, a);
    b = find(parent, b);
    if (a == b)
        return 0;
    if (size[a] < size[b]) {
        int c = a;
        a = b;
        b = c;
    }
    parent[b] = a;
    return size[a] += size[b];
}

static int rebuild(int n, const int *edges, int m, int *parent, int *size)
{
    int largest = 1;
    for (int v = 0; v < n; v++) {
        parent[v] = v;
        size[v] = 1;
    }
    for (int e = 0; e < m; e++) {
        int joined = join(parent, size, edges[e] / n, edges[e] % n);
        if (joined > largest)
            largest = joined;
    }
    return largest;
}

/* the largest component of the graph on n vertices whose m edges are the
   pairs a < b at the row-major indices idx.  Row a starts at index
   a(2n-1-a)/2, so the row of x is the floor of the smaller root of
   a(2n-1-a)/2 = x; the integer steps make it exact whatever the rounding of
   the root, which takes no step for n <= 8192 */
int largest_of_pairs(int n, const long long *idx, int m, int *parent, int *size)
{
    long long b = 2LL * n - 1;
    int largest = rebuild(n, 0, 0, parent, size);
    for (int e = 0; e < m; e++) {
        long long x = idx[e], a = (long long)((b - sqrt((double)(b * b - 8 * x))) / 2);
        while (a * (b - a) / 2 > x)
            a--;
        while ((a + 1) * (b - a - 1) / 2 <= x)
            a++;
        int joined = join(parent, size, (int)a, (int)(x - a * (b - a) / 2 + a + 1));
        if (joined > largest)
            largest = joined;
    }
    return largest;
}

/* applies the k flips of a flip log, keys a*n+b negated for a deletion, to
   the component state of a graph on n vertices, and writes the largest
   component after each flip to largest.  rows holds the n rows of `words`
   uint64 adjacency bits; comp holds the largest component (0 until the first
   call sets up the empty graph) and the number of free labels, then n
   labels, one per vertex, the n sizes of the labels' components, the n + 1
   counts of components by size, n seen marks, two search queues of n and
   the n free labels.  An added edge between two components relabels the
   smaller; a deletion runs GraphState._split_side's bidirectional search,
   one vertex expansion per side in turn until the sides meet or one is
   exhausted, and that side takes a free label */
void components(int n, int words, const int *keys, int k, int *largest,
                uint64_t *rows, int *comp)
{
    int *label = comp + 2, *size = label + n, *count = size + n, *mark = count + n + 1,
        *queue = mark + n, *free_label = queue + 2 * n;
    int top = comp[0], nfree = comp[1];

    if (!top) {
        for (int v = 0; v < n; v++) {
            label[v] = v;
            size[v] = 1;
        }
        count[1] = n;
        top = 1;
    }
    for (int f = 0; f < k; f++) {
        int key = keys[f] < 0 ? -keys[f] : keys[f], a = key / n, b = key % n;
        uint64_t *row_a = rows + (size_t)a * words, *row_b = rows + (size_t)b * words;
        if (keys[f] > 0) {
            row_a[b >> 6] |= 1ULL << (b & 63);
            row_b[a >> 6] |= 1ULL << (a & 63);
            int keep = label[a], gone = label[b];
            if (keep != gone) {
                if (size[keep] < size[gone]) {
                    int c = keep;
                    keep = gone;
                    gone = c;
                    b = a;
                }
                /* relabel the smaller component, searched from its end b */
                int tail = 1;
                queue[0] = b;
                label[b] = keep;
                for (int h = 0; h < tail; h++) {
                    const uint64_t *row = rows + (size_t)queue[h] * words;
                    for (int i = 0; i < words; i++)
                        for (uint64_t bits = row[i]; bits; bits &= bits - 1) {
                            int w = i << 6 | __builtin_ctzll(bits);
                            if (label[w] == gone) {
                                label[w] = keep;
                                queue[tail++] = w;
                            }
                        }
                }
                count[size[keep]]--;
                count[size[gone]]--;
                size[keep] += size[gone];
                count[size[keep]]++;
                free_label[nfree++] = gone;
                if (size[keep] > top)
                    top = size[keep];
            }
        } else {
            row_a[b >> 6] &= ~(1ULL << (b & 63));
            row_b[a >> 6] &= ~(1ULL << (a & 63));
            /* side s marks s + 1 and stops at a mark of the other side */
            int *q[2] = {queue, queue + n}, head[2] = {0, 0}, tail[2] = {1, 1}, s = 0,
                split = 0;
            q[0][0] = a;
            q[1][0] = b;
            mark[a] = 1;
            mark[b] = 2;
            for (;; s ^= 1) {
                if (head[s] == tail[s]) {
                    split = tail[s];
                    break;
                }
                const uint64_t *row = rows + (size_t)q[s][head[s]++] * words;
                for (int i = 0; i < words; i++)
                    for (uint64_t bits = row[i]; bits; bits &= bits - 1) {
                        int w = i << 6 | __builtin_ctzll(bits);
                        if (mark[w] == 2 - s)
                            goto searched;
                        if (!mark[w]) {
                            mark[w] = s + 1;
                            q[s][tail[s]++] = w;
                        }
                    }
            }
        searched:
            for (int i = 0; i < tail[0]; i++)
                mark[q[0][i]] = 0;
            for (int i = 0; i < tail[1]; i++)
                mark[q[1][i]] = 0;
            if (split) {
                int old = label[a], side = free_label[--nfree];
                for (int i = 0; i < split; i++)
                    label[q[s][i]] = side;
                count[size[old]]--;
                size[old] -= split;
                size[side] = split;
                count[size[old]]++;
                count[split]++;
                while (!count[top])
                    top--;
            }
        }
        largest[f] = top;
    }
    comp[0] = top;
    comp[1] = nfree;
}

int passage(int n, int N, int threshold, const double *rate, double *time, int *count,
            uint64_t *stream, int *edges, int capacity,
            unsigned char *present, int *parent, int *size,
            double *log_time, int *log_key, int log_capacity)
{
    double alpha = rate[0], birth_scale = rate[1], horizon = rate[2], edge_target = rate[3];
    double t = time[0], tau_edges = time[1];
    int m = count[0], largest = count[1], logged = count[2], status;
    struct pcg g = pcg_set_seed(stream, stream + 4);

    if (!largest)
        largest = rebuild(n, edges, 0, parent, size);
    for (;;) {
        int key;
        if (largest >= threshold) {
            status = FOUND;
            break;
        }
        if (m == capacity) {
            status = GROW;
            break;
        }
        if (log_time && logged == log_capacity) {
            status = LOGGED;
            break;
        }
        double del_rate = m * alpha, tot = del_rate + (N - m) * birth_scale;
        double next = t + -log(1.0 - next_double(&g)) / tot;
        if (next > horizon) {
            status = CAPPED;
            break;
        }
        if (next_double(&g) * tot < del_rate) {
            int at = (int)(next_double(&g) * m);
            key = edges[at];
            edges[at] = edges[--m];
            present[key >> 3] &= ~(1 << (key & 7));
            key = -key;
        } else {
            do {
                int a = (int)(next_double(&g) * n);
                int b = (int)(next_double(&g) * (n - 1));
                if (b >= a)
                    b++;
                key = a < b ? a * n + b : b * n + a;
            } while (present[key >> 3] >> (key & 7) & 1);
            present[key >> 3] |= 1 << (key & 7);
            edges[m++] = key;
            if (isnan(tau_edges) && m >= edge_target)
                tau_edges = next;
            int joined = join(parent, size, key / n, key % n);
            if (joined > largest && (largest = joined) >= threshold)
                largest = rebuild(n, edges, m, parent, size);
        }
        if (log_time) {
            log_time[logged] = next;
            log_key[logged++] = key;
        }
        t = next;
    }
    memcpy(stream + 4, &g, sizeof g);
    time[0] = t;
    time[1] = tau_edges;
    count[0] = m;
    count[1] = largest;
    count[2] = logged;
    return status;
}
"""
_FOUND, _CAPPED, _GROW, _LOGGED = range(4)
_FIRST_EDGES = 1024  # the edge array's first capacity; it doubles when full
_PASSAGE_MAX_N = 8192  # above it, the n^2 bits of present pairs pass 8 MiB
_FLIP_LOG = 4096  # flips a logged passage keeps before it returns LOGGED


def _compiled_passage(n: int):
    """The compiled library of `_PASSAGE_SOURCE`, with `passage`,
    `largest_of_pairs` and `components`, where `simulate._compiled_walk` can
    build it and n <= `_PASSAGE_MAX_N`, else None."""
    return simulate._compiled_walk(_PASSAGE_SOURCE) if n <= _PASSAGE_MAX_N else None


def _passage(d: DerivedParams, seed: int, replica: int, cap: float, threshold: int,
             edge_target=math.inf) -> tuple:
    """The component passage of a replica from the empty graph, to the cap:
    (tau_component, tau_edges, m, uniform), as `_component_passage` gives the
    first two, with m the edge count at its end and `uniform` the replica's
    stream from its first unread double.

    Runs the compiled passage (`_run_compiled`) where `_compiled_passage`
    gives it, else `_edge_flips` and `_component_passage`, its reference,
    with the same arithmetic, reads and results.
    """
    n = d.n
    compiled = _compiled_passage(n)
    if compiled is None:
        uniform, edges = _uniforms(seed, replica), []
        flips = _edge_flips(d, uniform, cap, edges)
        return (*_component_passage(flips, edges, n, threshold, edge_target), len(edges),
                uniform)
    return _run_compiled(compiled, d, _replica_key(seed, replica), cap, threshold, edge_target)


def _run_compiled(compiled, d: DerivedParams, key, cap: float, threshold: int,
                  edge_target=math.inf, on_flips=None, present_edges=None) -> tuple:
    """The compiled passage from the empty graph on the PCG64 stream keyed by
    `key`, a replica's `_replica_key`, to the cap: `_passage`'s
    (tau_component, tau_edges, m, uniform).

    The stream's 8 words are `key` and its struct pcg, 0 until the first
    call seeds it from the key, or the PCG64 state that a `key` of 8 words
    ends with.  Every buffer belongs to the run, since the compiled passage
    runs without the interpreter lock.  With `on_flips`, the passage logs
    each finished flip, and `on_flips(times, keys)` is called with the log
    each time it holds `_FLIP_LOG` flips and once at the end: numpy views of
    the flips' times and keys a*n+b, negated for a deletion (a key is at
    least 1, since b > a), valid until the call returns.  With
    `present_edges`, a list, the keys of the edges present at the end are
    appended to it.  The returned
    `uniform` reads on from the passage's last state, through a Generator
    built on its first call, so a caller that reads none builds none.
    """
    import ctypes

    n = d.n
    rate = (ctypes.c_double * 4)(d.alpha, d.beta / (n - 1), cap, edge_target)
    time = (ctypes.c_double * 2)(0.0, math.nan)
    count = (ctypes.c_int * 3)()
    stream = (ctypes.c_uint64 * 8)(*key)
    edges = (ctypes.c_int * _FIRST_EDGES)()
    present = (ctypes.c_ubyte * -(-n * n // 8))()
    parent, size = (ctypes.c_int * n)(), (ctypes.c_int * n)()
    log = (None, None, 0)
    if on_flips is not None:
        log = ((ctypes.c_double * _FLIP_LOG)(), (ctypes.c_int * _FLIP_LOG)(), _FLIP_LOG)
    while True:
        status = compiled.passage(n, d.N, threshold, rate, time, count, stream,
                                  edges, len(edges), present, parent, size, *log)
        if status == _GROW:
            grown = (ctypes.c_int * (2 * len(edges)))()
            ctypes.memmove(grown, edges, ctypes.sizeof(edges))
            edges = grown
        else:
            if count[2]:
                on_flips(np.frombuffer(log[0], count=count[2]),
                         np.frombuffer(log[1], np.intc, count[2]))
                count[2] = 0
            if status != _LOGGED:
                break
    if present_edges is not None:
        present_edges.extend(edges[:count[0]])
    t, tau_edges = time
    return (t if status == _FOUND else None, None if math.isnan(tau_edges) else tau_edges,
            count[0], _stream(lambda: _generator_at(key[:4], bytes(stream)[32:])))


def sample_component_hitting(
    d: DerivedParams, eps: float, seed: int, cap: float | None = None, replica: int = 0
) -> HittingSample:
    """First time the largest component reaches ceil(eps n), from the empty graph."""
    cap, threshold = _passage_bounds(d, eps, cap)
    t = _passage(d, seed, replica, cap, threshold)[0]
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
) -> EmergenceSample:
    """The run behind emergence_run and domination_run.

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
    tau_component, tau_edges, m, uniform = _passage(d, seed, replica, cap, threshold,
                                                    edge_target)
    if tau_component is not None and tau_edges is None:
        terms, shifts = _passage_terms(m, edge_target, d, uniform)
        t = tau_component + float(terms.sum())  # every term kept: + U
        if not (flag_only and t <= cap):
            t = tau_component + _thinned_sum(m, d, terms, shifts)
        tau_edges = t if t <= cap else None
    dominated = None if tau_edges is None else (
        tau_component is not None and tau_component <= tau_edges)
    return EmergenceSample(
        cap if tau_component is None else tau_component, tau_component is None,
        cap if tau_edges is None else tau_edges, tau_edges is None, dominated)


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
    return _emergence(d, eps, delta, seed, cap, replica)


def emergence_samples(
    d: DerivedParams, eps: float, delta: float, replicas: int, seed: int,
    cap: float | None = None, workers: int = 1,
) -> list:
    """emergence_run for replicas 0..replicas-1, in replica order."""
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
    return _emergence(d, eps, delta, seed, cap, replica, flag_only=True).dominated


def domination_samples(
    d: DerivedParams, eps: float, delta: float, replicas: int, seed: int,
    cap: float | None = None, workers: int = 1,
) -> list:
    """domination_run's flags for replicas 0..replicas-1, in replica order."""
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
    """Largest component of a uniform graph on n vertices with m distinct edges.

    The edges are a uniform m-subset of the row-major indices of the pairs
    a < b.  Where `_compiled_passage(n)` gives the compiled library, its
    `largest_of_pairs` decodes them and joins them in one call; elsewhere a
    numpy decode feeds `_UnionFind`, its reference, with the same result.
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    pairs = n * (n - 1) // 2
    if not (0 <= m <= pairs):
        raise ValueError(f"edge count must be in [0, {pairs}], got {m}")
    idx = replica_rng(seed, replica).choice(pairs, size=m, replace=False)
    compiled = _compiled_passage(n)
    if compiled is not None:
        import ctypes

        # the call runs without the interpreter lock, so its buffers are its own
        idx = np.ascontiguousarray(idx, np.int64)
        return compiled.largest_of_pairs(n, ctypes.c_void_p(idx.ctypes.data), m,
                                         (ctypes.c_int * n)(), (ctypes.c_int * n)())
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    rows = np.searchsorted(starts, idx, side="right") - 1
    cols = idx - starts[rows] + rows + 1
    return _UnionFind(n, (rows * n + cols).tolist()).largest


def static_largest_samples(
    n: int, m: int, replicas: int, seed: int, workers: int = 1
) -> list:
    """static_er_largest_component for replicas 0..replicas-1, in replica order."""
    return run_replicas(static_er_largest_component, (n, m, seed), replicas, workers)
