"""Exact stochastic simulation of the edge-count birth-death chain.

The edge count is simulated as an aggregate chain (two competing
exponentials per step), which by superposition has exactly the same law as
tracking all N per-edge clocks but costs O(1) per event.  One event loop,
`_run_chain`, serves every sampler here; each sampler only picks its stop
rule (absorbing counts, a time horizon, a level to time above).  The loop
walks the jump directions in Python and leaves the holding times to numpy
in batches, drawing them only where read.
Every replica owns an independent, reproducible random stream derived from
(seed, replica), so results are bit-identical regardless of how replicas
are spread over workers.
"""

import bisect
import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .analytic import (
    binomial_tail,
    cycle_expectation,
    expected_hitting,
    expected_stationarity_time,
)
from .logspace import LogNonNegative, ZERO
from .model import DerivedParams, closest_integer
from .stats import EstimateCI, mean_ci

__all__ = [
    "Trajectory",
    "HittingSample",
    "RenewalEstimate",
    "replica_rng",
    "default_hitting_cap",
    "simulate_trajectory",
    "sample_hitting_time",
    "sample_hitting_times",
    "sample_stationarity_time",
    "sample_stationarity_times",
    "sample_time_above",
    "renewal_targets",
    "estimate_hitting_renewal",
    "sample_escapes",
    "sample_escape_probability",
    "run_replicas",
]

_SEED_LIMIT = 1 << 64
_WORD = 1 << 32

# A seed below 2^64 is at most 4 uint32 words, which fill SeedSequence's
# pool (padded with zeros), so SeedSequence(seed, spawn_key=(r,)) for
# r < 2^32 starts from the pool of SeedSequence(seed).  It mixes the one
# spawn word r into that pool by the 17th to 20th calls of its hashmix, then
# hashes 8 output words from the pool into PCG64's key.  Call i xors with
# INIT_A * MULT_A^i and multiplies by INIT_A * MULT_A^(i+1), output word i
# likewise with INIT_B and MULT_B, all mod 2^32; so these constants are fixed.
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init, mult, first, count):
    return np.array([init * pow(mult, i, _WORD) % _WORD for i in range(first, first + count)],
                    np.uint32)


_KEY_XOR = _hash_constants(0x43B0D7E5, 0x931E8875, 16, 4)
_KEY_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 17, 4)
_OUT_XOR = _hash_constants(0x8B51F9DD, 0x58F38DED, 0, 8).reshape(2, 4)  # word i reads pool i % 4
_OUT_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 1, 8).reshape(2, 4)
_KEYS_PER_BLOCK = 64  # a power of two, so no block of replicas crosses 2^32


class _StreamKey(ISeedSequence):
    """The PCG64 key that SeedSequence(seed, spawn_key=(r,)) generates, precomputed."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words  # PCG64 asks for exactly these: 4 uint64 words


@lru_cache(maxsize=16)
def _key_block(seed, block):
    """The PCG64 keys of replicas 64*block..64*block+63 as a (64, 4) uint64 array.

    Each replica's spawn word is mixed into the pool of SeedSequence(seed)
    and the 8 output words are hashed out, for all 64 replicas at once in
    uint32 arithmetic, which wraps as SeedSequence's does.
    """
    pool = np.random.SeedSequence(seed).pool * _MIX_L
    first = block * _KEYS_PER_BLOCK
    h = (np.arange(first, first + _KEYS_PER_BLOCK, dtype=np.uint32)[:, None] ^ _KEY_XOR) * _KEY_MUL
    h ^= h >> 16
    h *= _MIX_R
    p = pool - h
    p ^= p >> 16
    w = (p.reshape(-1, 1, 4) ^ _OUT_XOR) * _OUT_MUL
    w ^= w >> 16
    keys = w.reshape(-1, 8).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    keys.setflags(write=False)  # the cache hands this array to every caller
    return keys


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Independent reproducible stream for one replica.

    The stream is PCG64 keyed by SeedSequence(seed, spawn_key=(replica,)),
    so replica r sees the same randomness no matter which worker runs it.
    The keys are computed in aligned blocks of 64 replicas (block r // 64,
    entry r % 64), equal word for word to SeedSequence's, and the 16 blocks
    used last are kept.  Replicas from 2^32 on are keyed by SeedSequence
    itself.  Seed and replica must be integers (a float raises TypeError),
    seeds in [0, 2^64).  The generator's seed sequence cannot spawn children.
    """
    seed = operator.index(seed)
    if not (0 <= seed < _SEED_LIMIT):
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    replica = operator.index(replica)
    if replica < 0:
        raise ValueError(f"replica must be a non-negative integer, got {replica}")
    if replica >= _WORD:
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replica,)))
    block, entry = divmod(replica, _KEYS_PER_BLOCK)
    return np.random.Generator(np.random.PCG64(_StreamKey(_key_block(seed, block)[entry])))


_FIRST_BLOCK = 128  # events read by a run's first block
_LAST_BLOCK = 2048  # blocks double up to this size


def _run_chain(d, k, rng, lower=-1, upper=-1, horizon=math.inf, level=None, path=None,
               timed=True):
    """The event loop of the edge-count chain, from count k at time 0.

    Runs until the count steps onto `lower` or `upper` (absorbing counts
    with lower < k < upper, else ValueError; the defaults never absorb) or
    the next event would pass `horizon`.  Returns (exit count, exit time,
    time spent at counts >= level); the exit time is `horizon` when the
    horizon ended the run.  When `path` is a list, every event is appended
    to it as (time, count).  A caller that reads no exit time passes
    timed=False (with no horizon and no path); the time is then None.

    The Generator `rng` is read in blocks of B = 128 events doubling up to
    2048: `rng.random(B)`, the jump directions in event order, and then
    `rng.standard_exponential(B)`, their Exp(1) holding-time variates.  A
    Python loop walks each block's directions through a memoryview, taking
    each jump up when the uniform is below the count's jump threshold,
    birth rate / total rate.  A block moves the count by at most B, so from
    count k it reads one aligned `_rate_lists` window, counts (c - 1)B to
    (c + 2)B with c = k // B, clipped to [0, N]; the walk never leaves
    [0, N], since the threshold is exactly 1 at count 0 and 0 at count N,
    and the window's None at a stop ends it (v < None raises TypeError).
    The variates are drawn after the walk: all B when the walk goes on, as
    the next block's directions follow them in the stream, and in the
    final block only those of its events, none when no time is read.

    The directions of all blocks go to one byte string, and numpy reads
    them only when the walk stops, at least 2048 events are pending, or a
    bound on their time (each block's variates over the smaller end of its
    window's total rates, which are linear in the count) passes the horizon.
    So the blocks pending before the last one, of size B, hold at most
    128 + ... + B/2 = B - 128 events, and the last block's window, which
    reaches B counts beyond its start either way, holds every count they
    visit.  Numpy divides the variates of the events whose times are read
    by that window's total rates and sums them in event order by
    `np.cumsum`, so every result equals that of adding one event at a time.
    """
    N = d.N
    # integer counts only: a float stop would never be stepped onto
    k, lower, upper = operator.index(k), operator.index(lower), operator.index(upper)
    if upper < 0:
        upper = N + 1
    if not (lower < k < upper):
        raise ValueError(f"start {k} must lie strictly between {lower} and {upper}")
    reads = timed or level is not None
    t = above = due = 0.0  # due bounds the time after the pending events
    size = _FIRST_BLOCK
    base = k  # the count before the pending events
    ups = bytearray()  # the pending jump directions, as signed bytes (255 is -1)
    xs = []  # their Exp(1) variates, one array per block
    while True:
        u = rng.random(size)
        lo = max(0, (k // size - 1) * size)
        th, tot = _rate_lists(lo, min(N + 1, lo + 3 * size), d, lower, upper)
        j = k - lo
        pending = len(ups)
        up = ups.append
        try:
            for v in memoryview(u):
                if v < th[j]:
                    j += 1
                    up(1)
                else:
                    j -= 1
                    up(255)
        except TypeError:  # v < None: the walk stepped onto lower or upper
            pass
        k = lo + j
        stopped = k == lower or k == upper
        if not stopped:
            x = rng.standard_exponential(size)
        elif reads:
            x = rng.standard_exponential(len(ups) - pending)
        if reads:
            xs.append(x)
        if horizon < math.inf and not stopped:  # a stopped walk is summed anyway
            due += float(np.add.reduce(x)) / min(tot.item(0), tot.item(-1))
        size = min(2 * size, _LAST_BLOCK)
        if not (stopped or len(ups) >= _LAST_BLOCK or due > horizon):
            continue
        # event times and time above `level` where read, by index in the
        # last block's window, which holds every pending count
        cut = events = len(ups)
        if reads:
            if len(xs) > 1:
                x = np.concatenate(xs)
            steps = np.frombuffer(ups, np.int8)
            after = np.cumsum(steps) + (base - lo)
            before = after - steps
        if timed:
            terms = x / tot[before]
            terms[0] += t
            times = np.cumsum(terms)
            t = float(times[-1])
            if t > horizon:
                cut = int(np.searchsorted(times, horizon, side="right"))
            if path is not None:
                path.extend(zip(times[:cut].tolist(), (after[:cut] + lo).tolist()))
        if level is not None:
            hit = np.flatnonzero(before[:cut] >= level - lo)
            if hit.size:
                terms = x[hit] / tot[before[hit]]
                terms[0] += above
                above = np.cumsum(terms)[-1]
        if cut < events:
            return lo + int(before[cut]), horizon, float(above)
        if stopped:
            return k, (t if timed else None), float(above)
        base, due = k, t
        ups = bytearray()  # a new one: numpy may still hold the old one's buffer
        xs = []


@lru_cache(maxsize=32)
def _rate_lists(lo, hi, d, lower, upper):
    """The window of counts lo..hi-1: (jump thresholds, total rates).

    The thresholds lam/tot, with the birth rate lam = (N - k) (beta/(n - 1))
    and the total rate tot = lam + k alpha, are a tuple of Python floats
    with None at `lower` and `upper` where they fall in the window; the
    total rates are a read-only array.  Cached: `_run_chain` asks for
    aligned windows, so the replicas of one sampler, which start from one
    count and share its stops, mostly ask for the same windows.
    """
    counts = np.arange(lo, hi)
    lam = (d.N - counts) * (d.beta / (d.n - 1))
    tot = lam + counts * d.alpha
    th = (lam / tot).tolist()
    for stop in (lower, upper):
        if lo <= stop < hi:
            th[stop - lo] = None
    tot.setflags(write=False)  # the cache hands this array to every caller
    return tuple(th), tot


@dataclass(frozen=True, slots=True)
class Trajectory:
    """Event-timed path of the edge count: (time, count) pairs from (0, start)."""

    horizon: float
    events: tuple

    def count_at(self, t: float) -> int:
        """Edge count in effect at time t (last event at or before t)."""
        if not (0 <= t <= self.horizon):
            raise ValueError(f"t must be within [0, {self.horizon}]")
        return self.events[bisect.bisect_right(self.events, (t, math.inf)) - 1][1]


@dataclass(frozen=True, slots=True)
class HittingSample:
    """One first-passage observation; time carries the cap when censored."""

    time: float
    censored: bool


@dataclass(frozen=True, slots=True)
class RenewalEstimate:
    """Regenerative estimate of E(tau_0(i)) for a supercritical target.

    estimate = mean(time above i per cycle) / P(Bin(N, p) >= i)
             + exact expected hitting time 0 -> s,
    kept in log scale; the CI is propagated from the cycle-time numerator
    only (the tail and the base term are exact).  `cycles` holds each
    replica's time above i, in replica order.
    """

    estimate: LogNonNegative
    half_width: LogNonNegative
    time_above: EstimateCI
    log_tail: float
    base: LogNonNegative
    i: int
    s: int
    cycles: tuple


def default_hitting_cap(d: DerivedParams) -> float:
    """Censoring cap used when none is given: 1e4 x expected stationarity time."""
    return 1e4 * expected_stationarity_time(d)


def simulate_trajectory(
    d: DerivedParams, start: int, horizon: float, seed: int, replica: int = 0
) -> Trajectory:
    """Exact event-driven path of the edge count up to the horizon."""
    if not (0 <= start <= d.N):
        raise ValueError(f"start count must be in [0, {d.N}], got {start}")
    if not (0 < horizon < math.inf):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    events = [(0.0, start)]
    _run_chain(d, start, replica_rng(seed, replica), horizon=horizon, path=events)
    return Trajectory(horizon, tuple(events))


def sample_hitting_time(
    d: DerivedParams,
    start: int,
    target: int,
    seed: int,
    cap: float | None = None,
    replica: int = 0,
) -> HittingSample:
    """First-passage time of the edge count from start up to target.

    Runs the exact jump chain; if the passage has not happened by `cap`
    the sample is censored (time records the cap, never dropped).
    """
    if not (0 <= start < target <= d.N):
        raise ValueError(f"need 0 <= start < target <= {d.N}, got {start}, {target}")
    if cap is None:
        cap = default_hitting_cap(d)
    if not (cap > 0):
        raise ValueError(f"cap must be positive, got {cap!r}")
    k, t, _ = _run_chain(d, start, replica_rng(seed, replica), upper=target, horizon=cap)
    return HittingSample(t, k != target)


def sample_stationarity_time(d: DerivedParams, seed: int, replica: int = 0) -> float:
    """One draw of the fastest time to stationarity.

    T_s is the maximum of N i.i.d. Exp(update_rate) refresh clocks; the draw
    inverts the exact max-CDF (1 - e^{-lambda t})^N in one step, which is
    distributionally identical to materializing the N clocks.
    """
    rng = replica_rng(seed, replica)
    v = rng.random()
    while v <= 0.0:
        v = rng.random()
    # F(T) = v  =>  T = -log(1 - v^{1/N}) / lambda, with 1 - v^{1/N} via expm1.
    return -math.log(-math.expm1(math.log(v) / d.N)) / d.update_rate


def sample_time_above(d: DerivedParams, i: int, s: int, seed: int, replica: int = 0) -> float:
    """Lebesgue time with edge count >= i, starting at i, until first hit of s.

    This is the whole above-i time of an (i -> s -> i) regenerative cycle:
    the return leg from s spends no time at or above i before its endpoint.
    """
    if not (0 <= s < i <= d.N):
        raise ValueError(f"need 0 <= s < i <= {d.N}, got i={i}, s={s}")
    return _run_chain(d, i, replica_rng(seed, replica), lower=s, level=i, timed=False)[2]


def _escaped(d, j, i, s, seed, replica):
    k, _, _ = _run_chain(d, j, replica_rng(seed, replica), lower=s, upper=i, timed=False)
    return 1.0 if k == i else 0.0


def _chunk(fn, args, lo, hi):
    return [fn(*args, replica=r) for r in range(lo, hi)]


def run_replicas(fn, args, replicas: int, workers: int = 1) -> list:
    """Evaluate fn(*args, replica=r) for r = 0..replicas-1, optionally on worker processes.

    Each sampler taking a `replica` keyword is thus its own replica function.
    Results come back in replica order, so any worker count yields the same
    list; per-replica streams make the values themselves worker-independent.
    At most os.cpu_count() processes are started.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be positive, got {replicas}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or replicas == 1:
        return _chunk(fn, args, 0, replicas)
    chunk_size = -(-replicas // workers)
    bounds = [(lo, min(lo + chunk_size, replicas)) for lo in range(0, replicas, chunk_size)]
    # one process per chunk: a fork pool starts all max_workers processes at once
    with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
        futures = [pool.submit(_chunk, fn, args, lo, hi) for lo, hi in bounds]
        out = []
        for fut in futures:
            out.extend(fut.result())
    return out


def sample_hitting_times(
    d: DerivedParams,
    start: int,
    target: int,
    replicas: int,
    seed: int,
    cap: float | None = None,
    workers: int = 1,
) -> list:
    """Replicated first-passage samples (censoring flagged per sample)."""
    if cap is None:
        cap = default_hitting_cap(d)
    return run_replicas(sample_hitting_time, (d, start, target, seed, cap), replicas, workers)


def sample_stationarity_times(
    d: DerivedParams, replicas: int, seed: int, workers: int = 1
) -> list:
    """Replicated draws of the fastest time to stationarity."""
    return run_replicas(sample_stationarity_time, (d, seed), replicas, workers)


def renewal_targets(d: DerivedParams, c: float) -> tuple:
    """Resolve (i, s) = ([c n], [beta n/(2 alpha)]) for the renewal estimator."""
    fixed_point = d.beta / (2.0 * d.alpha)
    if not (c > fixed_point):
        raise ValueError(
            f"renewal estimator needs c > beta/(2 alpha) = {fixed_point}, got {c!r}"
        )
    i = closest_integer(c * d.n)
    s = closest_integer(fixed_point * d.n)
    if i > d.N:
        raise ValueError(f"[c n] = {i} exceeds the pair count {d.N}")
    if not (s < i):
        raise ValueError(f"[c n] = {i} must exceed s = [beta n/(2 alpha)] = {s}")
    return i, s


def estimate_hitting_renewal(
    d: DerivedParams, c: float, replicas: int, seed: int, workers: int = 1
) -> RenewalEstimate:
    """Regenerative estimator of E(tau_0([c n])) for c above beta/(2 alpha).

    Simulates (i -> s) cycle legs for the mean time above i, divides by the
    exact stationary tail P(Bin(N, p) >= i), and adds the exact expected
    hitting time 0 -> s.  Slightly upward biased (by the omitted i -> s
    descent, an O(log n) term).
    """
    if replicas < 100:
        raise ValueError(f"need at least 100 replicas, got {replicas}")
    i, s = renewal_targets(d, c)
    cycles = run_replicas(sample_time_above, (d, i, s, seed), replicas, workers)
    above = mean_ci(cycles)
    tail = binomial_tail(i, d)
    cycle_term = cycle_expectation(above.mean, LogNonNegative(tail.log_probability))
    base = expected_hitting(0, s, d) if s >= 1 else ZERO
    if above.half_width > 0.0:
        half = LogNonNegative(math.log(above.half_width) - tail.log_probability)
    else:
        half = ZERO
    return RenewalEstimate(
        estimate=cycle_term + base,
        half_width=half,
        time_above=above,
        log_tail=tail.log_probability,
        base=base,
        i=i,
        s=s,
        cycles=tuple(cycles),
    )


def sample_escapes(
    d: DerivedParams,
    j: int,
    i: int,
    s: int,
    replicas: int,
    seed: int,
    workers: int = 1,
) -> list:
    """Per-replica escape flags: 1.0 when the chain from j reaches i before s."""
    if not (0 <= s < j < i <= d.N):
        raise ValueError(f"need 0 <= s < j < i <= {d.N}, got s={s}, j={j}, i={i}")
    return run_replicas(_escaped, (d, j, i, s, seed), replicas, workers)


def sample_escape_probability(
    d: DerivedParams,
    j: int,
    i: int,
    s: int,
    replicas: int,
    seed: int,
    workers: int = 1,
) -> EstimateCI:
    """Monte Carlo P(tau_j(i) < tau_j(s)): race the two first passages."""
    if replicas < 2:
        raise ValueError(f"need at least 2 replicas, got {replicas}")
    return mean_ci(sample_escapes(d, j, i, s, replicas, seed, workers))
