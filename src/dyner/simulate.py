"""Exact stochastic simulation of the edge-count birth-death chain.

The edge count is simulated as an aggregate chain (two competing
exponentials per step), which by superposition has exactly the same law as
tracking all N per-edge clocks but costs O(1) per event.  One event loop,
`_run_chain` (`_run_chains` for a chunk of replicas), serves every sampler
here; each sampler only picks its stop rule (absorbing counts, a time
horizon, a level to time above).  The loop walks each block's jump
directions and then times its events, drawing the holding times only where
read.  A chunk of replicas is one call of a C function, compiled with the
platform's C compiler on first use and loaded through ctypes, that runs each
replica's whole run in turn: it seeds the replica's PCG64 (`_PCG_SOURCE`,
the labeled passage's too) from its key, draws its uniforms inline and its
Exp(1) variates through numpy's own random library, so no replica builds a
numpy Generator; each sampler's one replica is its chunk of one.  Where it
cannot be built (no compiler, no numpy random archive, no 128-bit
integers), its reference, the Python block loop `_run_blocks`, gives the
same bytes from a Generator keyed alike, one replica at a time.  Every
replica owns an independent, reproducible random stream derived from
(seed, replica), so results are bit-identical regardless of how replicas
are spread over workers or chunks.
"""

import bisect
import math
import operator
import os
import sys
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
from .model import DerivedParams, _kernel_rates, closest_integer
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


def _hashed_keys(seed, first, stop):
    """The PCG64 keys of replicas first..stop-1, stop <= 2^32, as a
    (stop - first, 4) uint64 array.

    Each replica's spawn word is mixed into the pool of SeedSequence(seed)
    and the 8 output words are hashed out, for all the replicas at once in
    uint32 arithmetic, which wraps as SeedSequence's does.
    """
    pool = np.random.SeedSequence(seed).pool * _MIX_L
    h = (np.arange(first, stop, dtype=np.uint32)[:, None] ^ _KEY_XOR) * _KEY_MUL
    h ^= h >> 16
    h *= _MIX_R
    p = pool - h
    p ^= p >> 16
    w = (p.reshape(-1, 1, 4) ^ _OUT_XOR) * _OUT_MUL
    w ^= w >> 16
    return w.reshape(-1, 8).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@lru_cache(maxsize=16)
def _key_block(seed, block):
    """The PCG64 keys of replicas 64*block..64*block+63 as a (64, 4) uint64 array."""
    keys = _hashed_keys(seed, block * _KEYS_PER_BLOCK, (block + 1) * _KEYS_PER_BLOCK)
    keys.setflags(write=False)  # the cache hands this array to every caller
    return keys


def _replica_key(seed, replica):
    """The PCG64 key of replica `replica`'s stream: the 4 uint64 words (32
    bytes) that SeedSequence(seed, spawn_key=(replica,)) generates.

    The one keying of every replica stream, read by `replica_rng` and by the
    count chain's runs, whose chunks take theirs from `_replica_keys`.  Below 2^32 the key is taken from aligned
    blocks of 64 replicas (block r // 64, entry r % 64), equal word for word
    to SeedSequence's, and the 16 blocks used last are kept; from 2^32 on
    SeedSequence itself generates it.  Seed and replica must be integers (a
    float raises TypeError), seeds in [0, 2^64).
    """
    seed = operator.index(seed)
    if not (0 <= seed < _SEED_LIMIT):
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    replica = operator.index(replica)
    if replica < 0:
        raise ValueError(f"replica must be a non-negative integer, got {replica}")
    if replica >= _WORD:
        return np.random.SeedSequence(seed, spawn_key=(replica,)).generate_state(4, np.uint64)
    block, entry = divmod(replica, _KEYS_PER_BLOCK)
    return _key_block(seed, block)[entry]


def _replica_keys(seed, lo, hi):
    """The keys of replicas lo..hi-1 as the rows of one (hi - lo, 4) array,
    each `_replica_key`'s: below 2^32 hashed all at once, from 2^32 on one
    SeedSequence each."""
    if hi <= lo:
        return np.empty((0, 4), np.uint64)
    rows = [_replica_key(seed, lo)[None]]  # checks the seed and lo
    below = min(hi, _WORD)
    if lo + 1 < below:
        rows.append(_hashed_keys(seed, lo + 1, below))
    rows += [_replica_key(seed, r)[None] for r in range(max(lo + 1, _WORD), hi)]
    return np.concatenate(rows)


def _key_generator(key):
    """The Generator of the PCG64 stream keyed by `key` (`_replica_key`'s
    4 words); its seed sequence cannot spawn children."""
    return np.random.Generator(np.random.PCG64(_StreamKey(key)))


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Independent reproducible stream for one replica.

    The stream is PCG64 keyed by SeedSequence(seed, spawn_key=(replica,)),
    so replica r sees the same randomness no matter which worker runs it;
    `_replica_key` computes the key.  Seed and replica must be integers (a
    float raises TypeError), seeds in [0, 2^64).  The generator's seed
    sequence cannot spawn children.
    """
    return _key_generator(_replica_key(seed, replica))


_FIRST_BLOCK = 128  # events read by a run's first block
_LAST_BLOCK = 2048  # blocks double up to this size

# numpy's random library, whose exponential fill function
# Generator.standard_exponential calls; the compiled run links it
_NPYRANDOM = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")

# numpy's PCG64, which both compiled kernels start with: a 128-bit LCG with
# the XSL-RR output, doubles from the top 53 bits.  `pcg_set_seed` loads a
# struct pcg from its 4 stream words, or, where they are 0 (inc is odd once
# seeded), seeds it from the 4 key words as numpy's `pcg64_set_seed` does.
_PCG_SOURCE = """\
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

/* numpy's PCG64 state */
struct pcg {
    u128 state, inc;
};

static void pcg_step(struct pcg *g)
{
    g->state = g->state * (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)
               + g->inc;
}

static uint64_t next_uint64(void *p)
{
    struct pcg *g = p;
    pcg_step(g);
    uint64_t v = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned r = (unsigned)(g->state >> 122);
    return v >> r | v << (-r & 63);
}

static double next_double(void *p)
{
    return (double)(next_uint64(p) >> 11) * (1.0 / 9007199254740992.0);
}

static struct pcg pcg_set_seed(const uint64_t *key, const uint64_t *stream)
{
    struct pcg g;
    memcpy(&g, stream, sizeof g);
    if (!(g.inc & 1)) {
        g.state = 0;
        g.inc = (((u128)key[2] << 64 | key[3]) << 1) | 1;
        pcg_step(&g);
        g.state += (u128)key[0] << 64 | key[1];
        pcg_step(&g);
    }
    return g;
}
"""

# The count chain's compiled run, built by `_compiled_walk` on a run's first
# use and linked with `_NPYRANDOM`; `_run_blocks` is its Python reference.
# `run` runs `_run_chain`'s blocks from `state` (a struct run, which
# `_run_types` lays out) on the PCG64 of `_PCG_SOURCE`, seeded from the key
# on the run's first call and resumed from the struct by later calls; its
# `blocks` draws each block's uniforms inline, as numpy's
# uniform fill draws them, and then its Exp(1) variates through numpy's own
# exponential fill, fed by a bitgen_t over the run's PCG64 on its stack, so
# it reads the stream as `_run_blocks` reads its Generator, with no Python
# object and no lock.  Each block computes, by `rates`, the thresholds and
# total rates of the counts it can read, [k-B, k+B] inside the stops, with
# the operations of `model._kernel_rates`, so with the bytes of
# `_run_blocks`' window; it then walks the block's directions and times its
# events as `_run_blocks` does, on indices into that window, the stops and
# the level clipped to [-1, length].  Where `times` is not NULL it returns
# after each block, having written the times and counts of the block's timed
# events there, at most LAST = `_LAST_BLOCK`, the size of the buffers
# `_run_types` gives.  It returns the number of the last block's timed
# events and leaves the run's state for the next call: its count, time, time
# above and stream, and its next block's size, 0 when a stop ended the run
# and -1 when the horizon did; called again on an ended run it returns 0 at
# once and changes nothing.  `runs` runs `count` structs in place, each to
# its end, for `_run_chains`.
_RUN_SOURCE = _PCG_SOURCE + """
/* numpy's bitgen_t, as numpy/random/bitgen.h declares it */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *);
    uint32_t (*next_uint32)(void *);
    double (*next_double)(void *);
    uint64_t (*next_raw)(void *);
} bitgen_t;

void random_standard_exponential_fill(bitgen_t *bitgen, intptr_t count, double *out);

/* reads is 0 where the run reads no time; stream holds the struct pcg,
   all 0 before the first call.  The stops and the level may lie outside
   [-1, N + 1]: each block clips them to its window, whose counts outside
   [0, N] the walk never reaches */
struct run {
    long long count, size, lower, upper, level, N, reads;
    double t, horizon, above, alpha, birth_scale;
    uint64_t key[4], stream[4];
};

enum { LAST = 2048 };

static int clip(long long index, int length)
{
    return index < -1 ? -1 : index > length ? length : (int)index;
}

/* the jump thresholds and total rates of the counts base..base+length-1 */
void rates(long long base, int length, long long N, double alpha, double birth_scale,
           double *th, double *tot)
{
    for (int c = 0; c < length; c++) {
        double lam = (double)(N - base - c) * birth_scale;
        tot[c] = lam + (double)(base + c) * alpha;
        th[c] = lam / tot[c];
    }
}

static int blocks(struct pcg *g, struct run *state, double *times, long long *counts)
{
    /* the exponential fill reads only next_uint64 and next_double */
    bitgen_t bitgen = {g, next_uint64, 0, next_double, 0};
    long long k = state->count, N = state->N;
    double t = state->t, horizon = state->horizon, above = state->above;
    int size = (int)state->size, events;
    double draws[LAST], th[2 * LAST + 1], tot[2 * LAST + 1];
    signed char step[LAST];

    if (size <= 0)  /* the run has ended */
        return 0;
    for (;;) {
        long long base = k - size > state->lower ? k - size : state->lower + 1;
        int length = (int)((k + size < state->upper ? k + size : state->upper - 1) - base + 1);
        int lower = clip(state->lower - base, length), upper = clip(state->upper - base, length);
        int level = clip(state->level - base, length);
        int start = (int)(k - base), i = 0, j = start, stopped = 0;
        rates(base, length, N, state->alpha, state->birth_scale, th, tot);
        for (int u = 0; u < size; u++)
            draws[u] = next_double(g);
        while (i < size && !stopped && 0 <= j && j < length) {
            int s = draws[i] < th[j] ? 1 : -1;
            step[i++] = (signed char)s;
            j += s;
            stopped = j == lower || j == upper;
        }
        events = i;
        k = base + j;
        if (!stopped || state->reads)
            random_standard_exponential_fill(&bitgen, stopped ? events : size, draws);
        if (state->reads) {
            for (i = 0, j = start; i < events; i++) {
                double dt = draws[i] / tot[j], next = t + dt;
                if (next > horizon)
                    break;
                if (j >= level)
                    above += dt;
                t = next;
                j += step[i];
                if (times) {
                    times[i] = t;
                    counts[i] = base + j;
                }
            }
            if (i < events) {
                k = base + j;
                events = i;
                size = -1;
                break;
            }
        }
        if (stopped) {
            size = 0;
            break;
        }
        size = size < LAST ? 2 * size : LAST;
        if (times)
            break;
    }
    state->count = k;
    state->size = size;
    state->t = t;
    state->above = above;
    return events;
}

int run(struct run *state, double *times, long long *counts)
{
    struct pcg g = pcg_set_seed(state->key, state->stream);
    int events = blocks(&g, state, times, counts);
    memcpy(state->stream, &g, sizeof g);
    return events;
}

void runs(struct run *states, long long count)
{
    for (long long r = 0; r < count; r++)
        run(states + r, 0, 0);
}
"""


_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")  # no fused multiply-add


_CACHE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")


def _library_path(source, link):
    """Where `_compiled_walk` keeps the library built from the C `source`
    and the archives `link`: `_CACHE`, the package's `__pycache__`, as
    `_kernel-<name>-<hash>.so`.  The name is the kernel's, the last function
    the source exports; the hash is of the platform tag, the compiler flags,
    the source and each archive's path, size and modification time.  OSError
    when an archive is missing."""
    import hashlib
    import re
    import sysconfig

    stats = [os.stat(archive) for archive in link]
    key = "\n".join((sysconfig.get_platform(), *_CFLAGS, source,
                     *(f"{a} {s.st_size} {s.st_mtime_ns}" for a, s in zip(link, stats))))
    name = re.findall(r"^(?!static\b)\w[\w ]*?\b(\w+)\((?!.*;$)", source, re.M)[-1]
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(_CACHE, f"_kernel-{name}-{digest}.so")


@lru_cache(maxsize=4)
def _compiled_walk(source, *link):
    """The shared library compiled from the C `source` and linked with the
    static archives `link`, loaded through ctypes, or None when it cannot be
    built or loaded.

    The one loader of the compiled kernels: the count chain's run
    (`_RUN_SOURCE`, linked with numpy's random library `_NPYRANDOM`) and the
    labeled chain's component passage (`components._PASSAGE_SOURCE`), each
    beside its Python reference.  The library is compiled by the platform C
    compiler, `cc`, on first use and kept at `_library_path`; it is written
    to a temporary file there and moved into place, so processes that build
    it at once do not collide, and the libraries of the kernel's earlier
    sources are then removed, with any unnamed `_kernel-<hash>.so` left by
    builds from before kernels were named, those of other kernels kept.
    Any failure (no compiler, a missing archive, a source the compiler
    rejects, such as either kernel where it has no `unsigned __int128`, a
    read-only package directory, a failed load) leaves the caller on its
    Python reference, which gives the same bytes.
    """
    # imported here, so that importing dyner starts and loads nothing more
    import contextlib
    import ctypes
    import glob
    import subprocess
    import tempfile

    try:
        path = _library_path(source, link)
        if not os.path.exists(path):
            cache = os.path.dirname(path)
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(".so", "_kernel-", cache)
            os.close(fd)
            try:
                # `-x none` reads the archives as linker input, not as C
                subprocess.run(["cc", *_CFLAGS, "-o", tmp, "-x", "c", "-",
                                *(("-x", "none", *link, "-lm") if link else ())],
                               input=source.encode(), capture_output=True, check=True,
                               timeout=60)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
            unnamed = os.path.join(cache, f"_kernel-{'[0-9a-f]' * 16}.so")
            for old in glob.glob(f"{path.rsplit('-', 1)[0]}-*.so") + glob.glob(unnamed):
                if old != path:
                    with contextlib.suppress(OSError):  # another process removed it first
                        os.remove(old)
        return ctypes.CDLL(path)
    except (OSError, subprocess.SubprocessError):
        return None


@lru_cache(maxsize=1)
def _run_types():
    """What the compiled run is called with: the layout of struct run, its
    key and its zeroed stream last, and the same struct as numpy fields; the
    layout of what a call leaves there (count, block size, t, time above);
    and the ctypes types of a block's event times and counts."""
    import ctypes
    import struct

    fields = np.dtype([(name, np.int64) for name in ("count", "size", "lower", "upper",
                                                     "level", "N", "reads")]
                      + [(name, np.float64) for name in ("t", "horizon", "above", "alpha",
                                                         "birth_scale")]
                      + [("key", np.uint64, 4), ("stream", np.uint64, 4)])
    return (struct.Struct("7q5d32s32x"), fields, struct.Struct("2q40xd8xd"),
            ctypes.c_double * _LAST_BLOCK, ctypes.c_longlong * _LAST_BLOCK)


def _run_state(d, k, keys, lower, upper, horizon, level, reads):
    """The struct runs that compiled runs of `_run_chain` start from, one
    per row of `keys`, as a numpy array the caller owns: copies of one
    packed template with the key column set, each stream to be seeded from
    its key by the run's first call."""
    layout, fields = _run_types()[:2]
    template = layout.pack(k, _FIRST_BLOCK, lower, upper, level, d.N, reads, 0.0, horizon,
                           0.0, d.alpha, d.beta / (d.n - 1), bytes(32))
    states = np.frombuffer(bytearray(template) * len(keys), fields)
    states["key"] = keys
    return states


def _chain_args(d, k, lower, upper, level, timed):
    """`_run_chain`'s counts, checked: (k, lower, upper, level, reads), with
    the default stops and level put in and reads true where the run reads
    a time."""
    # integer counts only: a float stop would never be stepped onto
    k, lower, upper = operator.index(k), operator.index(lower), operator.index(upper)
    if upper < 0:
        upper = d.N + 1
    if not (lower < k < upper):
        raise ValueError(f"start {k} must lie strictly between {lower} and {upper}")
    reads = timed or level is not None
    level = d.N + 1 if level is None else operator.index(level)
    return k, lower, upper, level, reads


def _run_chain(d, k, key, lower=-1, upper=-1, horizon=math.inf, level=None, path=None,
               timed=True):
    """The event loop of the edge-count chain, from count k at time 0.

    Runs until the count steps onto `lower` or `upper` (absorbing counts
    with lower < k < upper, else ValueError; the defaults never absorb) or
    the next event would pass `horizon`.  Returns (exit count, exit time,
    time spent at counts >= level); the exit time is `horizon` when the
    horizon ended the run.  When `path` is a list, every event is appended
    to it as (time, count).  A caller that reads no exit time passes
    timed=False (with no horizon and no path); the time is then None.

    The run reads the PCG64 stream keyed by `key`, a replica's
    `_replica_key`, in blocks of B = 128 events doubling up to 2048: B
    uniforms (`Generator.random(B)`), the jump directions in event order,
    and then B Exp(1) holding-time variates
    (`Generator.standard_exponential(B)`).  The walk of each block's
    directions takes each jump up when the uniform is below the count's
    jump threshold, birth rate / total rate; it never leaves [0, N], since
    the threshold is exactly 1 at count 0 and 0 at count N, and a stop ends
    it.  The variates are drawn after the walk: all B when the walk goes on,
    as the next block's directions follow them in the stream, and in the
    final block only those of its events, none when no time is read (escape
    races, which skip the clock).  The clock then times the block's events,
    adding each holding time, variate / total rate, to the run's time one
    event at a time, so a horizon ends the run in the block that passes it.

    Without a path the run is `_run_chains`' chunk of one.  With one it is
    a loop of calls of the compiled `run` where `_compiled_walk` can build
    it, each returning after a block, whose events are appended, and the
    next resuming the stream from the run's struct (`_run_state`); the
    first call seeds the stream from the key in C, so no Generator is built
    and no lock is held.  Elsewhere `_run_blocks`, its reference, runs the
    same blocks in Python and gives the same bytes.
    """
    if path is None:
        return _run_chains(d, k, key[None], lower, upper, horizon, level, timed)[0]
    k, lower, upper, level, reads = _chain_args(d, k, lower, upper, level, timed)
    compiled = _compiled_walk(_RUN_SOURCE, _NPYRANDOM)
    if compiled is None:
        return _run_blocks(d, k, key, lower, upper, horizon, level, path, timed, reads)
    import ctypes

    # no argtypes: the struct goes as a c_void_p, the buffers as ctypes
    # arrays, and the result is an int, ctypes' default; counts, which can
    # pass 2^31, go in the struct as long longs
    state = _run_state(d, k, key[None], lower, upper, horizon, level, reads)
    _, _, outcome, event_times, event_counts = _run_types()
    times, counts = event_times(), event_counts()
    while True:
        events = compiled.run(ctypes.c_void_p(state.ctypes.data), times, counts)
        path.extend(zip(np.frombuffer(times, count=events).tolist(),
                        np.frombuffer(counts, np.int64, events).tolist()))
        k, size, t, above = outcome.unpack_from(state)
        if size <= 0:
            return k, (horizon if size else t if timed else None), above


def _run_chains(d, k, keys, lower=-1, upper=-1, horizon=math.inf, level=None, timed=True):
    """`_run_chain` without a path, once per row of `keys`: the runs'
    (exit count, exit time, time above) in row order.

    Where `_compiled_walk` builds the compiled run, the rows are one call of
    C `runs` on a `_run_state` array that this call owns, which runs each
    struct to its end, its stream seeded from its key; the outcomes are read
    back from the array's fields.  Elsewhere `_run_blocks`, the reference,
    runs each key in turn, with the same bytes.
    """
    k, lower, upper, level, reads = _chain_args(d, k, lower, upper, level, timed)
    compiled = _compiled_walk(_RUN_SOURCE, _NPYRANDOM)
    if compiled is None:
        return [_run_blocks(d, k, key, lower, upper, horizon, level, None, timed, reads)
                for key in keys]
    import ctypes

    states = _run_state(d, k, keys, lower, upper, horizon, level, reads)
    compiled.runs(ctypes.c_void_p(states.ctypes.data), ctypes.c_longlong(len(states)))
    times = [None] * len(states)
    if timed:
        times = [horizon if size else t
                 for size, t in zip(states["size"].tolist(), states["t"].tolist())]
    return list(zip(states["count"].tolist(), times, states["above"].tolist()))


# replicas per `_run_chains` call of a chunk: their keys and structs (160
# bytes each) take under 1 MiB, however many replicas the chunk holds
_RUNS_PER_CALL = 4096


def _run_chunk(d, k, seed, lo, hi, **rule):
    """`_run_chains` of replicas lo..hi-1 of `seed`, from count k under the
    stop `rule`, `_RUNS_PER_CALL` replicas at a time: each replica's (exit
    count, exit time, time above) in replica order."""
    out = []
    for first in range(lo, hi, _RUNS_PER_CALL):
        keys = _replica_keys(seed, first, min(first + _RUNS_PER_CALL, hi))
        out += _run_chains(d, k, keys, **rule)
    return out


def _run_blocks(d, k, key, lower, upper, horizon, level, path, timed, reads):
    """`_run_chain` in Python, drawing from the Generator of `key`: the
    compiled run's reference, C `blocks` block by block, with its draws and
    bytes.  A block of B events moves the count by at most B, so it reads
    the counts [k - B, k + B], cut at the stops and at [0, N], with the
    rates of `model._kernel_rates`."""
    rng = _key_generator(key)
    size, t, above = _FIRST_BLOCK, 0.0, 0.0
    while True:
        base = max(k - size, lower + 1, 0)
        lam, mu = _kernel_rates(base, min(k + size, upper - 1, d.N) + 1, d)
        tot = lam + mu
        th = (lam / tot).tolist()
        low, high, start = lower - base, upper - base, k - base
        j, steps = start, []
        for v in rng.random(size).tolist():
            step = 1 if v < th[j] else -1
            steps.append(step)
            j += step
            if j == low or j == high:
                break
        k = base + j
        stopped = j == low or j == high
        if stopped and not reads:
            return k, None, above
        x = rng.standard_exponential(len(steps) if stopped else size).tolist()
        if reads:
            tot, at, j = tot.tolist(), level - base, start
            for step, v in zip(steps, x):
                dt = v / tot[j]
                if t + dt > horizon:
                    return base + j, horizon, above
                if j >= at:
                    above += dt
                t += dt
                j += step
                if path is not None:
                    path.append((t, base + j))
        if stopped:
            return k, (t if timed else None), above
        size = min(2 * size, _LAST_BLOCK)


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


def _resolve_cap(d: DerivedParams, cap: float | None) -> float:
    """The censoring cap of a passage: `cap`, or the default one when None;
    checked positive."""
    cap = default_hitting_cap(d) if cap is None else cap
    if not (cap > 0):
        raise ValueError(f"cap must be positive, got {cap!r}")
    return cap


def simulate_trajectory(
    d: DerivedParams, start: int, horizon: float, seed: int, replica: int = 0
) -> Trajectory:
    """Exact event-driven path of the edge count up to the horizon."""
    if not (0 <= start <= d.N):
        raise ValueError(f"start count must be in [0, {d.N}], got {start}")
    if not (0 < horizon < math.inf):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    events = [(0.0, start)]
    _run_chain(d, start, _replica_key(seed, replica), horizon=horizon, path=events)
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
    return _hitting_times(d, start, target, seed, cap, lo=replica, hi=replica + 1)[0]


def _hitting_times(d, start, target, seed, cap=None, *, lo, hi):
    # `sample_hitting_time` of replicas lo..hi-1, as one chunk
    if not (0 <= start < target <= d.N):
        raise ValueError(f"need 0 <= start < target <= {d.N}, got {start}, {target}")
    cap = _resolve_cap(d, cap)
    return [HittingSample(t, k != target)
            for k, t, _ in _run_chunk(d, start, seed, lo, hi, upper=target, horizon=cap)]


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
    return _times_above(d, i, s, seed, lo=replica, hi=replica + 1)[0]


def _times_above(d, i, s, seed, *, lo, hi):
    # `sample_time_above` of replicas lo..hi-1, as one chunk
    if not (0 <= s < i <= d.N):
        raise ValueError(f"need 0 <= s < i <= {d.N}, got i={i}, s={s}")
    return [above for _, _, above in _run_chunk(d, i, seed, lo, hi, lower=s, level=i,
                                                timed=False)]


def _escaped(d, j, i, s, seed, replica):
    return _escapes(d, j, i, s, seed, lo=replica, hi=replica + 1)[0]


def _escapes(d, j, i, s, seed, *, lo, hi):
    # `_escaped` of replicas lo..hi-1, as one chunk: 1.0 where the race reached i
    return [1.0 if k == i else 0.0
            for k, _, _ in _run_chunk(d, j, seed, lo, hi, lower=s, upper=i, timed=False)]


# the count chain's samplers, whose chunks each run as one call
sample_hitting_time._chunked = _hitting_times
sample_time_above._chunked = _times_above
_escaped._chunked = _escapes


def _chunk(fn, args, lo, hi):
    # fn(*args, replica=r) for r in lo..hi-1: one call of `fn._chunked`
    # where fn has that chunk form, else one call per replica
    chunked = getattr(fn, "_chunked", None)
    if chunked is None:
        return [fn(*args, replica=r) for r in range(lo, hi)]
    return chunked(*args, lo=lo, hi=hi)


def run_replicas(fn, args, replicas: int, workers: int = 1) -> list:
    """Evaluate fn(*args, replica=r) for r = 0..replicas-1, optionally on worker processes.

    Each sampler taking a `replica` keyword is thus its own replica function.
    A count-chain sampler (`sample_hitting_time`, `sample_time_above`, the
    escape races) runs each chunk of replicas lo..hi as one call of its chunk
    form, `fn._chunked`, whose chains run in one C call per `_RUNS_PER_CALL`
    replicas (`_run_chunk`); its one-replica form is its chunk of one.
    Results come back in replica order, so any worker count yields the same
    list; per-replica streams make the values themselves worker-independent.
    Replica 0 runs in the caller first, so a bad input is reported before
    any process starts, and the caches every replica reads (killed spectra,
    the compiled kernels, key blocks) are filled once.  Replicas 1.. then go
    to at most os.cpu_count() processes, forked on Linux so that they
    inherit those caches; a lone replica left runs in the caller too.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be positive, got {replicas}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    out = _chunk(fn, args, 0, 1)
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or replicas <= 2:
        return out + _chunk(fn, args, 1, replicas)
    import multiprocessing  # only a fan-out pays for these imports
    from concurrent.futures import ProcessPoolExecutor
    chunk_size = -(-(replicas - 1) // workers)
    bounds = [(lo, min(lo + chunk_size, replicas)) for lo in range(1, replicas, chunk_size)]
    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    # one process per chunk: a fork pool starts all max_workers processes at once
    with ProcessPoolExecutor(max_workers=len(bounds), mp_context=context) as pool:
        futures = [pool.submit(_chunk, fn, args, lo, hi) for lo, hi in bounds]
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
    if cap is None:  # once per call; a given cap is checked per replica, after its counts
        cap = _resolve_cap(d, cap)
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
