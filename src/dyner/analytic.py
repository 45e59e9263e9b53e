"""Closed-form quantities for the edge-flip graph dynamics.

Covers the single-edge transition functions and separation, the law of the
fastest time to stationarity and its Gumbel limit, expected hitting times of
the edge-count chain (stable recursion, series form, and a linear-solve
oracle), their exact spectral law with a gate-free sampler, escape
probabilities, the deterministic fluid limit, entropy exponents and
binomial tail bounds for supercritical targets, and the large-deviation
exponents that govern when a macroscopic component first appears.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .logspace import LogNonNegative, log_add
from .model import DerivedParams, birth_rate, closest_integer, death_rate

__all__ = [
    "transition_probability",
    "stationary_probability",
    "edge_separation",
    "stationarity_cdf",
    "graph_separation",
    "gumbel_limit_cdf",
    "expected_stationarity_time",
    "holding_mean",
    "expected_hitting_step",
    "expected_hitting_step_series",
    "expected_hitting",
    "expected_hitting_oracle",
    "escape_probability",
    "HittingTimeLaw",
    "hitting_time_law",
    "sample_passage",
    "fluid_time",
    "fluid_trajectory",
    "relative_entropy",
    "EntropyExponent",
    "entropy_exponent",
    "BinomialTail",
    "binomial_tail",
    "cycle_expectation",
    "c_epsilon",
    "RateExponents",
    "rate_functions",
    "rate_functions_small_eps",
]

ORACLE_DIMENSION_CAP = 2000


def _check_time(t: float) -> None:
    if math.isnan(t) or t < 0:
        raise ValueError(f"time must be nonnegative, got {t!r}")


def transition_probability(start: int, end: int, t: float, d: DerivedParams) -> float:
    """Single-edge transition function p_{start,end}(t).

    p01(t) = p (1 - e^{-lambda t}), p11(t) = e^{-lambda t} + p (1 - e^{-lambda t}),
    with lambda the per-pair update rate; the other two follow by normalization.
    """
    if start not in (0, 1) or end not in (0, 1):
        raise ValueError("edge states must be 0 or 1")
    _check_time(t)
    decay = math.exp(-d.update_rate * t)
    mixed = d.p * -math.expm1(-d.update_rate * t)  # p (1 - e^{-lambda t})
    if start == 0:
        p_present = mixed
    else:
        p_present = decay + mixed
    return p_present if end == 1 else 1.0 - p_present


def stationary_probability(state: int, d: DerivedParams) -> float:
    """Stationary law of a single edge: pi(1) = p, pi(0) = q."""
    if state not in (0, 1):
        raise ValueError("edge states must be 0 or 1")
    return d.p if state == 1 else d.q


def edge_separation(t: float, d: DerivedParams) -> float:
    """Separation of one edge process from stationarity: e^{-lambda t}.

    The same value for both starting states, and equals the survival
    function of the per-pair refresh clock.
    """
    _check_time(t)
    return math.exp(-d.update_rate * t)


def _log_stationarity_cdf(t: float, d: DerivedParams) -> float:
    """log P(T_s <= t) = N log1p(-e^{-lambda t}); -inf while e^{-lambda t} rounds to 1."""
    _check_time(t)
    decay = math.exp(-d.update_rate * t)
    if decay >= 1.0:
        return -math.inf
    return d.N * math.log1p(-decay)


def stationarity_cdf(t: float, d: DerivedParams) -> float:
    """P(T_s <= t) for the fastest time to stationarity of the whole graph.

    T_s is the maximum of N i.i.d. Exp(update_rate) refresh clocks, so the
    CDF is (1 - e^{-lambda t})^N, evaluated as exp(N log1p(-e^{-lambda t})).
    """
    return math.exp(_log_stationarity_cdf(t, d))


def graph_separation(t: float, d: DerivedParams) -> float:
    """Separation of the full graph from stationarity: 1 - stationarity_cdf(t)."""
    return -math.expm1(_log_stationarity_cdf(t, d))


def gumbel_limit_cdf(x: float) -> float:
    """Limit law of alpha T_s - 2 log n + log 2: the Gumbel CDF e^{-e^{-x}}."""
    if x < -700.0:
        return 0.0
    return math.exp(-math.exp(-x))


@lru_cache(maxsize=8)
def _harmonic_number(m: int) -> float:
    if m <= 1_000_000:
        return float(np.sum(1.0 / np.arange(1, m + 1)))
    # Euler-Maclaurin tail; error O(m^-6) is far below double rounding here.
    inv = 1.0 / m
    euler_gamma = 0.5772156649015328606
    return math.log(m) + euler_gamma + 0.5 * inv - inv * inv / 12.0 + inv**4 / 120.0


def expected_stationarity_time(d: DerivedParams) -> float:
    """Exact mean of T_s: H_N / lambda with H_N the N-th harmonic number."""
    return _harmonic_number(d.N) / d.update_rate


def holding_mean(k: int, d: DerivedParams) -> float:
    """Mean holding time of the edge-count chain in state k."""
    return 1.0 / (birth_rate(k, d) + death_rate(k, d))


def _hitting_step_logs(d: DerivedParams, count: int) -> np.ndarray:
    """log E(tau_k(k+1)) for k = 0..count-1 via the one-step recursion.

    E(tau_0(1)) = (n-1)/(beta N) and, for k >= 1,
    E(tau_k(k+1)) = 1/lambda_k + (mu_k/lambda_k) E(tau_{k-1}(k)),
    accumulated entirely in log space since values grow like e^{Theta(n)}.
    """
    n, alpha, beta, N = d.n, d.alpha, d.beta, d.N
    logs = np.empty(count)
    cur = math.log((n - 1) / (beta * N))
    logs[0] = cur
    for k in range(1, count):
        lam = (N - k) * beta / (n - 1)
        mu = k * alpha
        cur = log_add(-math.log(lam), math.log(mu / lam) + cur)
        logs[k] = cur
    return logs


def expected_hitting_step(i: int, d: DerivedParams) -> LogNonNegative:
    """Expected time for the edge count to first move from i to i+1."""
    if not (0 <= i <= d.N - 1):
        raise ValueError(f"step start must be in [0, {d.N - 1}], got {i}")
    return LogNonNegative(float(_hitting_step_logs(d, i + 1)[i]))


def _hitting_logs(d: DerivedParams, i: int) -> np.ndarray:
    """log E(tau_j(i)) for j = 0..i-1: the step logs log-summed from k = i-1 down to j."""
    return np.logaddexp.accumulate(_hitting_step_logs(d, i)[::-1])[::-1]


def _log_binomials(N: int, top: int) -> np.ndarray:
    """log C(N, k) for k = 0..top: the running sum of log((N - k)/(k + 1)) from 0."""
    k = np.arange(top)
    return np.concatenate(([0.0], np.cumsum(np.log((N - k) / (k + 1)))))


def expected_hitting_step_series(i: int, d: DerivedParams) -> LogNonNegative:
    """Series form of E(tau_i(i+1)) used as a cross-check of the recursion.

    (n-1)(N-i-1)! i! / (beta N!) * sum_{j=0}^{i} C(N, j) (alpha (n-1)/beta)^{i-j},
    where the prefactor is (n-1) / (beta (N-i) C(N, i)).  The log C(N, j)
    come from the running log-sum of `_log_binomials` and the sum from
    log-sum-exp, so factorials of N never materialize.
    """
    if not (0 <= i <= d.N - 1):
        raise ValueError(f"step start must be in [0, {d.N - 1}], got {i}")
    n, alpha, beta, N = d.n, d.alpha, d.beta, d.N
    log_binom = _log_binomials(N, i)
    log_terms = log_binom + (i - np.arange(i + 1)) * math.log(alpha * (n - 1) / beta)
    peak = float(np.max(log_terms))
    total = peak + math.log(float(np.sum(np.exp(log_terms - peak))))
    return LogNonNegative(math.log((n - 1) / (beta * (N - i))) - float(log_binom[i]) + total)


def expected_hitting(j: int, i: int, d: DerivedParams) -> LogNonNegative:
    """Expected first-passage time of the edge count from j up to i.

    Sum of the one-step expectations for k = j..i-1 (strong Markov property),
    accumulated in log space.
    """
    if not (0 <= j < i <= d.N):
        raise ValueError(f"need 0 <= j < i <= {d.N}, got j={j}, i={i}")
    return LogNonNegative(float(_hitting_logs(d, i)[j]))


def expected_hitting_oracle(j: int, i: int, d: DerivedParams) -> float:
    """First-step linear-solve oracle for E(tau_j(i)).

    Solves the tridiagonal system (lambda_k + mu_k) x_k - lambda_k x_{k+1}
    - mu_k x_{k-1} = 1 for k < i with absorbing x_i = 0 (mu_0 = 0 reflects
    at zero) and returns x_j.  The elimination runs in exact rational
    arithmetic: the system's condition number grows like the answer itself
    (e^{Theta(n)}), which destroys any floating-point solve long before the
    answer leaves double range.  The result must still fit a double.
    """
    if not (0 <= j < i <= d.N):
        raise ValueError(f"need 0 <= j < i <= {d.N}, got j={j}, i={i}")
    if i > ORACLE_DIMENSION_CAP:
        raise ValueError(
            f"oracle dimension {i} exceeds the elimination cap {ORACLE_DIMENSION_CAP}"
        )
    n1 = d.n - 1
    alpha = Fraction(d.alpha)
    birth_scale = Fraction(d.beta) / n1
    lam = [(d.N - k) * birth_scale for k in range(i)]
    mu = [k * alpha for k in range(i)]
    one = Fraction(1)
    # forward elimination (Thomas): diag[k] x_k - lam[k] x_{k+1} = rhs[k]
    diag = [None] * i
    rhs = [None] * i
    diag[0] = lam[0] + mu[0]
    rhs[0] = one
    for k in range(1, i):
        factor = mu[k] / diag[k - 1]
        diag[k] = lam[k] + mu[k] - factor * lam[k - 1]
        rhs[k] = one + factor * rhs[k - 1]
    # back substitution with x_i = 0
    x = rhs[i - 1] / diag[i - 1]
    for k in range(i - 2, j - 1, -1):
        x = (rhs[k] + lam[k] * x) / diag[k]
    return float(x)


def escape_probability(j: int, i: int, s: int, d: DerivedParams) -> LogNonNegative:
    """P_j(tau_i < tau_s): the edge count from j reaches i before it falls to s.

    Gambler's ruin through the chain's scale function: the probability is
    sum_{k=s}^{j-1} w_k / sum_{k=s}^{i-1} w_k, with w_s = 1 and
    w_k = prod_{l=s+1}^{k} mu_l/lambda_l, all in logs.
    """
    if not (0 <= s < j < i <= d.N):
        raise ValueError(f"need 0 <= s < j < i <= {d.N}, got s={s}, j={j}, i={i}")
    l = np.arange(s + 1, i)
    log_ratios = np.log(l * d.alpha / ((d.N - l) * d.beta / (d.n - 1)))
    log_w = np.concatenate(([0.0], np.cumsum(log_ratios)))
    return LogNonNegative(float(np.logaddexp.reduce(log_w[:j - s]) - np.logaddexp.reduce(log_w)))


LAW_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True, eq=False)
class HittingTimeLaw:
    """Exact law of the edge count's first passage up to `target`.

    From a start j < target, P(tau_j(target) > x) = sum_k a_k(j) e^{-rate_k x}
    (Keilson), with rate_k the spectrum of the generator killed at target
    and weights[j, k] = a_k(j).  A start is accepted only when its weights
    reproduce both moments to LAW_TOLERANCE: sum_k a_k(j) = 1 and
    sum_k a_k(j)/rate_k = E(tau_j(target)).  Far below the stationary mode
    the weights cancel catastrophically, and such starts are refused.
    """

    target: int
    rates: np.ndarray
    weights: np.ndarray
    accepted: np.ndarray

    def accepts(self, j: int) -> bool:
        return 0 <= j < self.target and bool(self.accepted[j])

    def survival(self, j: int, x):
        """P(tau_j(target) > x) for a time or an array of times x >= 0."""
        if not self.accepts(j):
            raise ValueError(f"start {j} is refused by the precision gate of target {self.target}")
        x = np.asarray(x, dtype=float)
        if not np.all(x >= 0):
            raise ValueError("times must be nonnegative")
        # each time's terms are summed on their own row, so a time reads the
        # same bits alone as in any array
        s = (np.exp(-np.multiply.outer(x, self.rates)) * self.weights[j]).sum(-1).clip(0.0, 1.0)
        return float(s) if s.ndim == 0 else s


def hitting_time_law(i: int, d: DerivedParams) -> HittingTimeLaw:
    """Spectral law of the first passage up to i, from every start below i;
    solved once per (i, d) and process, its arrays read-only."""
    if not (1 <= i <= d.N):
        raise ValueError(f"target must be in [1, {d.N}], got {i}")
    return _hitting_time_law(i, d)


def _killed_chain(i: int, d: DerivedParams) -> tuple:
    """The birth and death rates at the counts 0..i-1, which the generator killed at i keeps."""
    k = np.arange(i)
    return (d.N - k) * (d.beta / (d.n - 1)), k * d.alpha


def _symmetrised(birth, death) -> np.ndarray:
    """The killed generator symmetrised by pi^{1/2}, pi_{k+1}/pi_k = birth_k/death_{k+1}."""
    off = -np.sqrt(birth[:-1] * death[1:])
    return np.diag(birth + death) + np.diag(off, 1) + np.diag(off, -1)


_LOG_MAX = math.log(np.finfo(float).max)


@lru_cache(maxsize=8)
def _killed_rates(i: int, d: DerivedParams) -> np.ndarray:
    """The rates of the generator killed at i, ascending and read-only; the
    smallest, which can sit below the solver's absolute precision, comes
    from the exact mean, sum_k 1/rate_k = E(tau_0(i)), in logs where the mean
    overflows."""
    rates = np.linalg.eigvalsh(_symmetrised(*_killed_chain(i, d)))
    log_mean, rest = float(_hitting_logs(d, i)[0]), float(np.sum(1.0 / rates[1:]))
    if log_mean < _LOG_MAX:
        rates[0] = 1.0 / (math.exp(log_mean) - rest)
    else:  # the mean leaves double range; the rate may underflow to 0
        rates[0] = math.exp(-log_mean - math.log1p(-rest * math.exp(-log_mean)))
    rates.setflags(write=False)  # the cache hands this array to every caller
    return rates


def _rates_below(j: int, d: DerivedParams, x: np.ndarray) -> np.ndarray:
    """How many rates of the generator killed at j lie below each x: the
    negative LDL^T pivots p_k of its symmetrised form minus x (Sylvester),
    run as r_k = p_k - birth_k = death_k r_{k-1}/p_{k-1} - x, which does not
    cancel, so even rates below the solver's precision are resolved."""
    r, p, pivots = np.zeros(len(x)), 1.0, np.empty((j, len(x)))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot
        for birth, death, row in zip(*(a.tolist() for a in _killed_chain(j, d)), pivots):
            r *= death
            r /= p
            r -= x
            p = np.add(r, birth, out=row)
    return np.count_nonzero(pivots < 0, axis=0)


@lru_cache(maxsize=8)
def _hitting_time_law(i: int, d: DerivedParams) -> HittingTimeLaw:
    birth, death = _killed_chain(i, d)
    _, vec = np.linalg.eigh(_symmetrised(birth, death))
    log_pi = np.concatenate(([0.0], np.cumsum(np.log(birth[:-1]) - np.log(death[1:]))))
    half = 0.5 * (log_pi - log_pi.max())
    means = np.exp(_hitting_logs(d, i))
    rates = _killed_rates(i, d)
    # deep starts overflow or cancel here; the gate refuses them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # a_k(j) = V_jk sum_l V_lk (pi_l/pi_j)^{1/2}
        weights = vec * (vec.T @ np.exp(half)) * np.exp(-half)[:, None]
        accepted = (np.abs(weights.sum(axis=1) - 1.0) <= LAW_TOLERANCE) & (
            np.abs(weights @ (1.0 / rates) - means) <= LAW_TOLERANCE * means
        )
    for arr in (weights, accepted):
        arr.setflags(write=False)
    return HittingTimeLaw(target=i, rates=rates, weights=weights, accepted=accepted)


def sample_passage(j: int, i: int, d: DerivedParams, uniform) -> float:
    """One draw of tau_j(i) from the next i + j floats in [0, 1) of `uniform`.

    With lambda and mu the rates of the generators killed at i and at j,
    Keilson's tau_0(i) = sum_k E_k/lambda_k (E_k ~ Exp(1)) is tau_0(j) plus
    an independent tau_j(i), and Cauchy interlacing, lambda_k <= mu_k, gives
    (Fill 2009) tau_j(i) = sum_k B_k E_k/lambda_k, with B_k ~ Bernoulli(1 -
    lambda_k/mu_k) for k < j and 1 above.  The first j uniforms give the B_k:
    u_k < 1 - lambda_k/mu_k when at most k of the mu lie below
    lambda_k/(1 - u_k), so mu is counted, not listed, and no start is refused.
    A rate that underflows to 0 makes the draw inf.
    """
    return _thinned_sum(j, d, *_passage_terms(j, i, d, uniform))


def _passage_terms(j: int, i: int, d: DerivedParams, uniform) -> tuple:
    """The terms E_k/lambda_k of a draw of tau_j(i), all kept, from the next
    i + j uniforms, and the shifts lambda_k/(1 - u_k) that thin the first j."""
    if not (0 <= j < i <= d.N):
        raise ValueError(f"need 0 <= j < i <= {d.N}, got j={j}, i={i}")
    lam = _killed_rates(i, d)
    u = np.array([uniform() for _ in range(i + j)])
    with np.errstate(divide="ignore", over="ignore"):  # a rate at or near 0
        return -np.log1p(-u[j:]) / lam, lam[:j] / (1.0 - u[:j])


def _thinned_sum(j: int, d: DerivedParams, terms: np.ndarray, shifts: np.ndarray) -> float:
    """The draw: the sum of `terms`, term k < j kept when at most k rates
    killed at j lie below shift k.  Dropped terms are set to 0 in place, not
    multiplied by 0, which would make an inf term NaN.  Floating-point
    addition is monotone in each operand, so the sum of the same array
    before thinning bounds the draw."""
    if j:
        terms[:j][_rates_below(j, d, shifts) > np.arange(j)] = 0.0
    return float(terms.sum())


def fluid_time(c_start: float, c_end: float, d: DerivedParams) -> float:
    """Time for the fluid limit of edge count / n to flow from c_start to c_end.

    Valid when both densities sit strictly on the same side of the fixed
    point beta/(2 alpha) with c_end closer to it; the value is
    -log((beta - 2 alpha c_end)/(beta - 2 alpha c_start)) / alpha.
    """
    for name, c in (("c_start", c_start), ("c_end", c_end)):
        if not (math.isfinite(c) and c >= 0):
            raise ValueError(f"{name} must be a finite nonnegative density, got {c!r}")
    fixed_point = d.beta / (2.0 * d.alpha)
    if min(c_start, c_end) <= fixed_point <= max(c_start, c_end):
        raise ValueError(
            f"densities ({c_start}, {c_end}) touch or straddle the fluid "
            f"fixed point beta/(2 alpha) = {fixed_point}; no finite fluid limit "
            "exists there - at that density the expected hitting time grows "
            "logarithmically in n"
        )
    if not (c_start < c_end < fixed_point or fixed_point < c_end < c_start):
        raise ValueError(
            "densities must satisfy c_start < c_end < beta/(2 alpha) or "
            f"beta/(2 alpha) < c_end < c_start; got c_start={c_start}, "
            f"c_end={c_end} with beta/(2 alpha)={fixed_point}"
        )
    ratio = (d.beta - 2.0 * d.alpha * c_end) / (d.beta - 2.0 * d.alpha * c_start)
    return -math.log(ratio) / d.alpha


def fluid_trajectory(t: float, c_start: float, d: DerivedParams) -> float:
    """Deterministic limit curve of edge count / n started from density c_start:
    (beta/(2 alpha)) (1 - e^{-alpha t}) + c_start e^{-alpha t}."""
    _check_time(t)
    if not (math.isfinite(c_start) and c_start >= 0):
        raise ValueError(f"c_start must be a finite nonnegative density, got {c_start!r}")
    fixed_point = d.beta / (2.0 * d.alpha)
    decay = math.exp(-d.alpha * t)
    return fixed_point * -math.expm1(-d.alpha * t) + c_start * decay


def relative_entropy(a: float, p: float) -> float:
    """Bernoulli relative entropy D(a || p) = a log(a/p) + (1-a) log((1-a)/(1-p))."""
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"a must be in [0, 1], got {a!r}")
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    total = 0.0
    if a > 0.0:
        total += a * math.log(a / p)
    if a < 1.0:
        total += (1.0 - a) * math.log((1.0 - a) / (1.0 - p))
    return total


@dataclass(frozen=True, slots=True)
class EntropyExponent:
    """Exact and asymptotic exponent of the stationary tail at density c."""

    i: int
    exact: float
    asymptotic: float


def entropy_exponent(c: float, d: DerivedParams) -> EntropyExponent:
    """N D(i/N || p) at i = [c n], with its n-scale asymptotic form.

    exact      = N D(i/N || p)
    asymptotic = n (c log(2 alpha c / beta) - c + beta/(2 alpha))
    The two differ by an O(1) amount at fixed c.
    """
    if math.isnan(c) or c <= 0:
        raise ValueError(f"density c must be positive, got {c!r}")
    i = closest_integer(c * d.n)
    if not (0 < i < d.N):
        raise ValueError(f"[c n] = {i} must lie strictly inside (0, {d.N})")
    exact = d.N * relative_entropy(i / d.N, d.p)
    asymptotic = d.n * (
        c * math.log(2.0 * d.alpha * c / d.beta) - c + d.beta / (2.0 * d.alpha)
    )
    return EntropyExponent(i=i, exact=exact, asymptotic=asymptotic)


@dataclass(frozen=True, slots=True)
class BinomialTail:
    """Exact stationary tail P(Bin(N, p) >= i) with entropy-form bounds.

    The bounds (8i)^{-1/2} e^{-N D} <= tail <= e^{-N D} bracket the exact
    value whenever i/N > p (bounds_valid); they are reported as logs because
    they underflow long before the bracket stops being informative.
    """

    log_probability: float
    log_lower_bound: float
    log_upper_bound: float
    bounds_valid: bool

    @property
    def probability(self) -> float:
        return math.exp(self.log_probability)


def binomial_tail(i: int, d: DerivedParams) -> BinomialTail:
    """Exact P(Bin(N, p) >= i) by compensated log-space summation.

    The log C(N, k) come from the running log-sum of `_log_binomials`, built
    only as far as the terms that do not underflow.  Terms are accumulated
    from the far tail downwards with exact compensated addition, after
    rescaling by the peak log term.
    """
    if not (0 <= i <= d.N):
        raise ValueError(f"count must be in [0, {d.N}], got {i}")
    N, p = d.N, d.p
    if i == 0:
        return BinomialTail(
            log_probability=0.0,
            log_lower_bound=math.nan,
            log_upper_bound=math.nan,
            bounds_valid=False,
        )
    # Past the peak the terms fall, and np.exp is 0.0 below -745.2: the sum
    # stops 746 below the peak.  The terms are built up to a count `hi`
    # that doubles until that stop (or N) lies within.  Reversed, the sum
    # starts from the far tail.
    hi = i
    while True:
        hi = min(N, 2 * hi)
        k = np.arange(i, hi + 1)
        log_pmf = _log_binomials(N, hi)[i:] + k * math.log(p) + (N - k) * math.log1p(-p)
        top = int(np.argmax(log_pmf))
        peak = float(log_pmf[top])
        gone = np.flatnonzero(log_pmf[top:] < peak - 746.0)
        if len(gone) or hi == N:
            break
    if len(gone):
        log_pmf = log_pmf[:top + gone[0]]
    total = math.fsum(np.exp(log_pmf[::-1] - peak).tolist())
    log_tail = min(peak + math.log(total), 0.0)
    divergence = relative_entropy(i / N, p)
    log_upper = -N * divergence
    log_lower = log_upper - 0.5 * math.log(8.0 * i)
    return BinomialTail(
        log_probability=log_tail,
        log_lower_bound=log_lower,
        log_upper_bound=log_upper,
        bounds_valid=(i / N) > p,
    )


def cycle_expectation(time_above: float, tail: LogNonNegative) -> LogNonNegative:
    """Renewal identity for the mean regenerative cycle: E(time above)/tail,
    with the tail kept in logs (it may lie far below double-precision range).
    """
    if math.isnan(time_above) or time_above < 0:
        raise ValueError(f"time_above must be nonnegative, got {time_above!r}")
    log_tail = tail.log_value
    if log_tail == float("-inf"):
        raise ValueError("tail probability must be positive")
    if log_tail > 1e-12:
        raise ValueError(f"tail must be a probability, got log tail {log_tail}")
    if time_above == 0.0:
        return LogNonNegative.from_linear(0.0)
    return LogNonNegative(math.log(time_above) - log_tail)


def c_epsilon(eps: float) -> float:
    """Edge density at which the static graph's largest component occupies a
    fraction eps of the vertices: -log(1 - eps) / (2 eps); always > 1/2."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    return -math.log1p(-eps) / (2.0 * eps)


@dataclass(frozen=True, slots=True)
class RateExponents:
    """Per-vertex large-deviation exponents for component emergence.

    k:  exponent of the edge-count route, c_eps log(2 c_eps) + 1/2 - c_eps
    i1: exponent of the direct component route,
        -eps log(1 - e^{-eps}) + eps log eps + (1-eps) log(1-eps) + eps(1-eps)
    """

    k: float
    i1: float


def rate_functions(eps: float) -> RateExponents:
    """Both emergence exponents at fraction eps.

    The edge-route exponent additionally needs 2 c_eps - 1 < 1, i.e. eps
    below ~0.7968.  Small-eps behavior: k ~ eps^2/16 and i1 ~ eps^3/8.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    ce = c_epsilon(eps)
    if not (0.0 < 2.0 * ce - 1.0 < 1.0):
        raise ValueError(
            f"edge-route exponent needs 2 c_eps - 1 in (0, 1); c_eps={ce} at eps={eps}"
        )
    k = ce * math.log(2.0 * ce) + 0.5 - ce
    i1 = (
        -eps * math.log(-math.expm1(-eps))
        + eps * math.log(eps)
        + (1.0 - eps) * math.log1p(-eps)
        + eps * (1.0 - eps)
    )
    return RateExponents(k=k, i1=i1)


def rate_functions_small_eps(eps: float) -> RateExponents:
    """Leading-order small-eps approximations eps^2/16 and eps^3/8."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    return RateExponents(k=eps * eps / 16.0, i1=eps**3 / 8.0)
