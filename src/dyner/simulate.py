"""Exact stochastic simulation of the edge-count birth-death chain.

The edge count is simulated as an aggregate chain (two competing
exponentials per step), which by superposition has exactly the same law as
tracking all N per-edge clocks but costs O(1) per event.  One event loop,
`_run_chain`, serves every sampler here; each sampler only picks its stop
rule (absorbing counts, a time horizon, a level to time above).  Every
replica owns an independent, reproducible random stream derived from
(seed, replica), so results are bit-identical regardless of how replicas are
spread over workers.
"""

import bisect
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

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
    "CycleSample",
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
    "sample_cycles",
    "renewal_from_cycles",
    "estimate_hitting_renewal",
    "sample_escapes",
    "sample_escape_probability",
    "run_replicas",
]

_SEED_LIMIT = 1 << 64


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Independent reproducible stream for one replica.

    The stream is PCG64 keyed by SeedSequence hashing of (seed, replica), so
    replica r sees the same randomness no matter which worker runs it.
    Seeds must lie in [0, 2^64).
    """
    seed = int(seed)
    if not (0 <= seed < _SEED_LIMIT):
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(replica),)))


def _uniforms(seed: int, replica: int):
    """Callable returning the replica's uniforms one Python float at a time.

    The Generator is read in blocks of 4096 doubles; the block size is part
    of every stream, so changing it changes all simulated output.
    """
    rng = replica_rng(seed, replica)
    return chain.from_iterable(iter(lambda: rng.random(4096).tolist(), None)).__next__


def _run_chain(d, k, uniform, lower=-1, upper=-1, horizon=math.inf, level=None, path=None):
    """The event loop of the edge-count chain, from count k at time 0.

    Runs until the count steps onto `lower` or `upper` (absorbing counts;
    the defaults never absorb) or the next event would pass `horizon`.
    Returns (exit count, exit time, time spent at counts >= level); the exit
    time is `horizon` when the horizon ended the run.  When `path` is a
    list, every event is appended to it as (time, count).
    """
    n, alpha, N = d.n, d.alpha, d.N
    # model.birth_rate/death_rate inlined: the event loop is the hot path
    birth_scale = d.beta / (n - 1)
    if level is None:
        level = N + 1
    t = 0.0
    above = 0.0
    log_ = math.log
    while True:
        lam = (N - k) * birth_scale
        tot = lam + k * alpha
        dt = -log_(1.0 - uniform()) / tot
        t += dt
        if t > horizon:
            return k, horizon, above
        if k >= level:
            above += dt
        k = k + 1 if uniform() * tot < lam else k - 1
        if path is not None:
            path.append((t, k))
        if k == lower or k == upper:
            return k, t, above


@dataclass(frozen=True, slots=True)
class Trajectory:
    """Event-timed path of the edge count: (time, count) pairs from (0, start)."""

    params: DerivedParams
    start: int
    horizon: float
    seed: int
    replica: int
    events: tuple

    def count_at(self, t: float) -> int:
        """Edge count in effect at time t (last event at or before t)."""
        if t < 0 or t > self.horizon:
            raise ValueError(f"t must be within [0, {self.horizon}]")
        times = [ev[0] for ev in self.events]
        idx = bisect.bisect_right(times, t) - 1
        return self.events[idx][1]


@dataclass(frozen=True, slots=True)
class HittingSample:
    """One first-passage observation; time carries the cap when censored."""

    start: int
    target: int
    time: float
    censored: bool
    cap: float
    seed: int
    replica: int


@dataclass(frozen=True, slots=True)
class CycleSample:
    """Time spent at or above level i while descending from i to s."""

    i: int
    s: int
    time_above: float
    seed: int
    replica: int


@dataclass(frozen=True, slots=True)
class RenewalEstimate:
    """Regenerative estimate of E(tau_0(i)) for a supercritical target.

    estimate = mean(time above i per cycle) / P(Bin(N, p) >= i)
             + exact expected hitting time 0 -> s,
    kept in log scale; the CI is propagated from the cycle-time numerator
    only (the tail and the base term are exact).
    """

    estimate: LogNonNegative
    half_width: LogNonNegative
    count: int
    time_above: EstimateCI
    log_tail: float
    base: LogNonNegative
    i: int
    s: int


def default_hitting_cap(d: DerivedParams) -> float:
    """Censoring cap used when none is given: 1e4 x expected stationarity time."""
    return 1e4 * expected_stationarity_time(d)


def simulate_trajectory(
    d: DerivedParams, start: int, horizon: float, seed: int, replica: int = 0
) -> Trajectory:
    """Exact event-driven path of the edge count up to the horizon."""
    if not (0 <= start <= d.N):
        raise ValueError(f"start count must be in [0, {d.N}], got {start}")
    if not (horizon > 0):
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    events = [(0.0, start)]
    _run_chain(d, start, _uniforms(seed, replica), horizon=horizon, path=events)
    return Trajectory(
        params=d, start=start, horizon=horizon, seed=seed, replica=replica,
        events=tuple(events),
    )


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
    k, t, _ = _run_chain(d, start, _uniforms(seed, replica), upper=target, horizon=cap)
    return HittingSample(start, target, t, k != target, cap, seed, replica)


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


def sample_time_above(
    d: DerivedParams, i: int, s: int, seed: int, replica: int = 0
) -> CycleSample:
    """Lebesgue time with edge count >= i, starting at i, until first hit of s.

    This is the whole above-i time of an (i -> s -> i) regenerative cycle:
    the return leg from s spends no time at or above i before its endpoint.
    """
    if not (0 <= s < i <= d.N):
        raise ValueError(f"need 0 <= s < i <= {d.N}, got i={i}, s={s}")
    _, _, above = _run_chain(d, i, _uniforms(seed, replica), lower=s, level=i)
    return CycleSample(i=i, s=s, time_above=above, seed=seed, replica=replica)


def _hitting_one(args, replica):
    d, start, target, seed, cap = args
    return sample_hitting_time(d, start, target, seed, cap=cap, replica=replica)


def _stationarity_one(args, replica):
    d, seed = args
    return sample_stationarity_time(d, seed, replica=replica)


def _time_above_one(args, replica):
    d, i, s, seed = args
    return sample_time_above(d, i, s, seed, replica=replica)


def _escape_one(args, replica):
    d, j, i, s, seed = args
    k, _, _ = _run_chain(d, j, _uniforms(seed, replica), lower=s, upper=i)
    return 1.0 if k == i else 0.0

def _chunk(fn, args, lo, hi):
    return [fn(args, r) for r in range(lo, hi)]


def run_replicas(fn, args, replicas: int, workers: int = 1) -> list:
    """Evaluate fn(args, r) for r = 0..replicas-1, optionally on worker processes.

    Results come back in replica order, so any worker count yields the same
    list; per-replica streams make the values themselves worker-independent.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be positive, got {replicas}")
    workers = max(1, int(workers))
    if workers == 1 or replicas == 1:
        return [fn(args, r) for r in range(replicas)]
    chunk_size = -(-replicas // workers)
    bounds = [(lo, min(lo + chunk_size, replicas)) for lo in range(0, replicas, chunk_size)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
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
    return run_replicas(_hitting_one, (d, start, target, seed, cap), replicas, workers)


def sample_stationarity_times(
    d: DerivedParams, replicas: int, seed: int, workers: int = 1
) -> list:
    """Replicated draws of the fastest time to stationarity."""
    return run_replicas(_stationarity_one, (d, seed), replicas, workers)


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


def sample_cycles(
    d: DerivedParams, i: int, s: int, replicas: int, seed: int, workers: int = 1
) -> list:
    """Replicated above-i cycle legs for the regenerative estimator."""
    return run_replicas(_time_above_one, (d, i, s, seed), replicas, workers)


def renewal_from_cycles(d: DerivedParams, i: int, s: int, cycles) -> RenewalEstimate:
    """Combine cycle samples with the exact tail and base hitting term."""
    above = mean_ci([cy.time_above for cy in cycles])
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
        count=len(cycles),
        time_above=above,
        log_tail=tail.log_probability,
        base=base,
        i=i,
        s=s,
    )


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
    cycles = sample_cycles(d, i, s, replicas, seed, workers)
    return renewal_from_cycles(d, i, s, cycles)


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
    return run_replicas(_escape_one, (d, j, i, s, seed), replicas, workers)


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
