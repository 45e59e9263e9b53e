"""Parameters and state-dependent rates for the edge-flip graph dynamics.

Each of the N = n(n-1)/2 vertex pairs carries an independent on-off process:
a present edge is deleted at rate alpha, an absent edge appears at rate
beta/(n-1).  The edge count's birth rate is rounded in two orders:
`birth_rate` and the recursion `analytic._hitting_step_logs` compute
(N-k) beta/(n-1); the kernels and the killed generators compute
(N-k) (beta/(n-1)), spelled out three times: in `_kernel_rates`, which
gives the count chain's rate windows and the spectral law's killed chains,
and per event in `components._edge_flips` and in its compiled form,
`components._PASSAGE_SOURCE`, which is built without fused multiply-adds.
They can differ in the last bit, and output pins both: every random stream
pins the kernels' order, and the exact means pin the recursion's.  Emergence
runs read those means, so the recursion in the kernels' order changes the
`components emergence` README digest.  So the two orders stay apart.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelParams",
    "DerivedParams",
    "derive",
    "birth_rate",
    "death_rate",
    "closest_integer",
]


@dataclass(frozen=True, slots=True)
class ModelParams:
    """Vertex count and the two per-edge rates (units 1/time)."""

    n: int
    alpha: float
    beta: float

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        for name in ("alpha", "beta"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float)) and not isinstance(val, bool)):
                raise ValueError(f"{name} must be a positive real, got {val!r}")
            if not math.isfinite(val) or val <= 0:
                raise ValueError(f"{name} must be positive and finite, got {val!r}")


@dataclass(frozen=True, slots=True)
class DerivedParams:
    """Quantities derived from ModelParams; construct via :func:`derive`.

    N            number of vertex pairs, n(n-1)/2
    p            stationary edge probability beta / (beta + (n-1) alpha)
    q            1 - p
    update_rate  per-pair refresh rate alpha + beta/(n-1)

    Its hash, the hash of the tuple of those fields, is computed once: the
    caches of killed spectra and hitting-time laws take the params as a key
    on every lookup.
    """

    n: int
    alpha: float
    beta: float
    N: int
    p: float
    q: float
    update_rate: float
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fields = (self.n, self.alpha, self.beta, self.N, self.p, self.q, self.update_rate)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):
        return self._hash


def derive(params: ModelParams) -> DerivedParams:
    """Validate parameters and compute the shared derived quantities."""
    n, alpha, beta = params.n, float(params.alpha), float(params.beta)
    N = n * (n - 1) // 2
    p = beta / (beta + (n - 1) * alpha)
    return DerivedParams(
        n=n,
        alpha=alpha,
        beta=beta,
        N=N,
        p=p,
        q=1.0 - p,
        update_rate=alpha + beta / (n - 1),
    )


def _check_count(k: int, d: DerivedParams) -> None:
    if not (0 <= k <= d.N):
        raise ValueError(f"edge count must be in [0, {d.N}], got {k}")


def _kernel_rates(lo: int, hi: int, d: DerivedParams) -> tuple:
    """The birth and death rates at the counts lo..hi-1, in the kernels' order."""
    k = np.arange(lo, hi)
    return (d.N - k) * (d.beta / (d.n - 1)), k * d.alpha


def birth_rate(k: int, d: DerivedParams) -> float:
    """Rate of k -> k+1 transitions of the edge count: (N-k) beta/(n-1)."""
    _check_count(k, d)
    return (d.N - k) * d.beta / (d.n - 1)


def death_rate(k: int, d: DerivedParams) -> float:
    """Rate of k -> k-1 transitions of the edge count: k alpha."""
    _check_count(k, d)
    return k * d.alpha


def closest_integer(x: float) -> int:
    """Nearest integer with ties broken to even (the [x] convention)."""
    if not math.isfinite(x):
        raise ValueError(f"cannot round {x!r} to an integer")
    return int(round(x))
