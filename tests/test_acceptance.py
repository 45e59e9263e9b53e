"""Acceptance suite: every criterion at its stated tolerance, one per test.

Each test prints a single "[acceptance] ..." PASS/FAIL line (run pytest with
-s to see them live) and also asserts, so the suite is the executable
contract.  Known red: criterion 6b.  The exact law of the normalized
supercritical hitting time at n=40, c=0.8 (`analytic.hitting_time_law`,
independent of any sampling) sits at KS distance 0.0572 from Exp(1), so
the 0.05 budget cannot be met by any correct implementation at that
scale; the assertion is kept at 0.05 regardless.  Criterion 6d asserts
that exact distance, and its fall with n, from the rates alone.
"""

import math
import os
import pathlib
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np

from dyner import analytic as an
from dyner import components as comp
from dyner import simulate as sim
from dyner.model import ModelParams, closest_integer, derive
from dyner.stats import Z95, ks_distance, mean_ci

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
WORKERS = 2


def _d(n, alpha=1.0, beta=1.0):
    return derive(ModelParams(n, alpha, beta))


def _report(name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail}) [{elapsed:.1f}s / budget {budget:.0f}s]")


# ---------------------------------------------------------------- criterion 1


def test_c1_hitting_formula_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for n in range(2, 9):
        for alpha, beta in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
            d = _d(n, alpha, beta)
            for i in range(1, d.N + 1):
                series = an.expected_hitting_step_series(i - 1, d).value
                step = an.expected_hitting_step(i - 1, d).value
                worst = max(worst, abs(series - step) / step)
                for j in range(i):
                    rec = an.expected_hitting(j, i, d).value
                    oracle = an.expected_hitting_oracle(j, i, d)
                    worst = max(worst, abs(rec - oracle) / oracle)
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    _report("C1 hitting recursion/series/linear-solve", ok,
            f"worst rel gap {worst:.2e}", elapsed, 5)
    assert worst < 1e-9
    assert elapsed < 5.0


# ---------------------------------------------------------------- criterion 2


def test_c2_separation_identity():
    t0 = time.time()
    worst = 0.0
    for n in (2, 10, 100):
        d = _d(n)
        for t in np.linspace(0.02, 4.0, 100):
            s = an.edge_separation(t, d)
            via_01 = 1.0 - an.transition_probability(0, 1, t, d) / an.stationary_probability(1, d)
            via_10 = 1.0 - an.transition_probability(1, 0, t, d) / an.stationary_probability(0, d)
            worst = max(worst, abs(s - via_01), abs(s - via_10))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _report("C2 separation identity", ok, f"worst gap {worst:.2e}", elapsed, 1)
    assert worst < 1e-12
    assert elapsed < 1.0


def _labeled_generator(n, alpha, beta):
    # the whole labeled chain on the 2^N graphs (bit e of a state is pair e):
    # a present edge leaves at rate alpha, an absent pair arrives at beta/(n-1)
    pairs = n * (n - 1) // 2
    states = np.arange(1 << pairs)
    q = np.zeros((states.size, states.size))
    for e in range(pairs):
        present = (states >> e) & 1
        q[states, states ^ (1 << e)] = np.where(present, alpha, beta / (n - 1))
    q[states, states] = -q.sum(axis=1)
    p = beta / (beta + (n - 1) * alpha)
    edges = np.array([bin(s).count("1") for s in states])
    return q, p**edges * (1.0 - p) ** (pairs - edges)


def test_c2b_graph_separation_of_the_whole_chain():
    # the separation s_x(t) = 1 - min_y P_x(X_t = y)/pi(y) of the labeled
    # chain, from every start x, is the law of T_s: graph_separation(t)
    from scipy.linalg import expm

    t0 = time.time()
    worst = 0.0
    # n=5 reads two times: one expm of its 1,024 states took about 0.45 s on
    # a 2-core x86 host, against the criterion's 3 s budget
    for n, alpha, beta, times in ((4, 1.0, 1.0, (0.05, 0.4, 1.5, 6.0)),
                                  (4, 0.7, 2.3, (0.05, 0.4, 1.5, 6.0)),
                                  (5, 1.3, 0.6, (0.4, 6.0))):
        d = _d(n, alpha, beta)
        q, pi = _labeled_generator(n, alpha, beta)
        for t in times:
            ratio = expm(q * t) / pi
            separation = 1.0 - ratio.min(axis=1)
            worst = max(worst, float(np.max(np.abs(separation - an.graph_separation(t, d)))))
            # from the empty graph the halting state is the complete graph
            assert int(np.argmin(ratio[0])) == pi.size - 1
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 3.0
    _report("C2b separation of the whole chain", ok, f"worst gap {worst:.2e}", elapsed, 3)
    assert worst < 1e-12
    assert elapsed < 3.0


# ---------------------------------------------------------------- criterion 3


def test_c3_stationarity_law():
    t0 = time.time()
    d = _d(200)
    times = np.array(sim.sample_stationarity_times(d, 10_000, seed=3001))
    ks_exact = ks_distance(times, lambda t: an.stationarity_cdf(t, d))
    rescaled = 1.0 * times - 2.0 * math.log(200.0) + math.log(2.0)
    ks_gumbel = ks_distance(rescaled, an.gumbel_limit_cdf)
    mean = times.mean()
    se = times.std(ddof=1) / math.sqrt(times.size)
    mean_gap_se = abs(mean - an.expected_stationarity_time(d)) / se
    elapsed = time.time() - t0
    ok = ks_exact <= 0.02 and ks_gumbel <= 0.04 and mean_gap_se <= 3.0 and elapsed < 10.0
    _report("C3 stationarity time law", ok,
            f"ks_exact {ks_exact:.4f}, ks_gumbel {ks_gumbel:.4f}, mean gap {mean_gap_se:.2f} SE",
            elapsed, 10)
    assert ks_exact <= 0.02
    assert ks_gumbel <= 0.04
    assert mean_gap_se <= 3.0
    assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 4


def test_c4_subcritical_fluid_regime():
    t0 = time.time()
    d2000 = _d(2000)
    big = np.array([
        s.time for s in sim.sample_hitting_times(d2000, 0, 600, 200, seed=4001, workers=WORKERS)
    ])
    d500 = _d(500)
    small = np.array([
        s.time for s in sim.sample_hitting_times(d500, 0, 150, 200, seed=4002, workers=WORKERS)
    ])
    target = an.fluid_time(0.0, 0.3, d2000)
    rel_gap = abs(big.mean() - target) / target
    sd_big, sd_small = big.std(ddof=1), small.std(ddof=1)
    elapsed = time.time() - t0
    ok = rel_gap <= 0.02 and sd_big < sd_small and elapsed < 120.0
    _report("C4 subcritical hitting concentrates on fluid time", ok,
            f"mean rel gap {rel_gap * 100:.2f}%, sd {sd_big:.4f} < {sd_small:.4f}",
            elapsed, 120)
    assert rel_gap <= 0.02
    assert sd_big < sd_small
    assert elapsed < 120.0


# ---------------------------------------------------------------- criterion 5


def test_c5_boundary_logarithmic_growth():
    t0 = time.time()
    sizes = (100, 400, 1600)
    replicas = {100: 300, 400: 150, 1600: 80}
    means = []
    for n in sizes:
        d = _d(n)
        samples = sim.sample_hitting_times(
            d, 0, n // 2, replicas[n], seed=5000 + n, workers=WORKERS
        )
        means.append(float(np.mean([s.time for s in samples])))
    slope = float(np.polyfit(np.log(sizes), means, 1)[0])
    elapsed = time.time() - t0
    ok = slope <= 6.0 and elapsed < 300.0
    _report("C5 boundary-density growth is logarithmic", ok,
            f"fitted slope {slope:.3f} <= 6, means {[round(m, 2) for m in means]}",
            elapsed, 300)
    assert slope <= 6.0
    assert elapsed < 300.0


# ---------------------------------------------------------------- criterion 6


@lru_cache(maxsize=1)
def _c6_direct_samples():
    d = _d(40)
    samples = sim.sample_hitting_times(d, 0, 32, 2000, seed=6001, workers=WORKERS)
    return np.array([s.time for s in samples])


@lru_cache(maxsize=1)
def _c6_renewal():
    return sim.estimate_hitting_renewal(_d(40), 0.8, 1000, seed=6002, workers=WORKERS)


def test_c6a_renewal_and_direct_overlap():
    t0 = time.time()
    times = _c6_direct_samples()
    direct = mean_ci(times.tolist())
    est = _c6_renewal()
    lo = est.estimate.value - est.half_width.value
    hi = est.estimate.value + est.half_width.value
    overlap = max(lo, direct.low) <= min(hi, direct.high)
    elapsed = time.time() - t0
    ok = overlap and elapsed < 600.0
    _report("C6a renewal estimate consistent with direct MC", ok,
            f"direct [{direct.low:.1f},{direct.high:.1f}], renewal [{lo:.1f},{hi:.1f}]",
            elapsed, 600)
    assert overlap
    assert elapsed < 600.0


def _c6_exact_law_distance(n=40):
    # sup-distance of tau_0(i) / E(tau_0(i)) with i = [0.8 n] from Exp(1), on a fine grid
    d = _d(n)
    i = closest_integer(0.8 * n)
    mean = an.expected_hitting(0, i, d).value
    x = np.linspace(0.0, 10.0, 20001)
    survival = an.hitting_time_law(i, d).survival(0, x * mean)
    return float(np.max(np.abs(survival - np.exp(-x))))


def test_c6b_exponential_limit():
    t0 = time.time()
    times = _c6_direct_samples()
    ks = ks_distance(times / times.mean(), lambda x: -math.expm1(-x))
    exact = _c6_exact_law_distance()
    elapsed = time.time() - t0
    ok = ks <= 0.05 and elapsed < 600.0
    # the exact law sits this far from Exp(1) at this n, so 0.05 is
    # unreachable here by any correct sampler
    _report("C6b normalized hitting time near Exp(1)", ok,
            f"ks {ks:.4f} vs budget 0.05; exact-law distance {exact:.4f}", elapsed, 600)
    assert ks <= 0.05
    assert elapsed < 600.0


def test_c6d_exponential_limit_from_the_rates():
    # Keilson: tau_0(i) = X + R with X ~ Exp(rates[0]) and R independent, so
    # with eps = sum_{k>=1} (1/rates[k]) / E(tau_0(i)) the KS distance of
    # tau_0(i)/E from Exp(1) is at most (1 + 1/e) eps / (1 - eps).  The law
    # refuses start 0 from n = 100 on, so the exact distance is read at 40 and 60
    t0 = time.time()
    bounds, exact = [], []
    for n in (40, 60, 100, 200, 500):
        d = _d(n)
        i = closest_integer(0.8 * n)
        rates = an.hitting_time_law(i, d).rates
        log_eps = math.log(np.sum(1.0 / rates[1:])) - an.expected_hitting(0, i, d).log_value
        eps = math.exp(log_eps)
        bounds.append((1.0 + 1.0 / math.e) * eps / (1.0 - eps))
        if n <= 60:
            exact.append(_c6_exact_law_distance(n))
    elapsed = time.time() - t0
    falls = all(a > b for a, b in zip(bounds, bounds[1:]))
    ok = (falls and bounds[3] < 1e-5 and round(exact[0], 4) == 0.0572 and exact[1] < 0.05
          and all(e <= b for e, b in zip(exact, bounds)) and elapsed < 3.0)
    _report("C6d exponential limit from the rates", ok,
            f"bounds {', '.join(f'{b:.2e}' for b in bounds)}; "
            f"exact {exact[0]:.4f} at n=40, {exact[1]:.4f} at n=60", elapsed, 3)
    assert falls
    assert bounds[3] < 1e-5
    assert round(exact[0], 4) == 0.0572
    assert exact[1] < 0.05
    assert all(e <= b for e, b in zip(exact, bounds))
    # the target is 2 s; the budget is 3 s as for C2b, since a process's first
    # eigh can take 0.2 s and wall speed varies between runs
    assert elapsed < 3.0


def test_c6c_renewal_exponent_bracket():
    t0 = time.time()
    est = _c6_renewal()
    center = 40 * 0.07596
    slack = math.log(40.0) + 5.0
    log_est = est.estimate.log_value
    inside = center - slack <= log_est <= center + slack
    elapsed = time.time() - t0
    ok = inside and elapsed < 600.0
    _report("C6c renewal log-estimate inside exponent bracket", ok,
            f"log {log_est:.2f} in [{center - slack:.2f}, {center + slack:.2f}]",
            elapsed, 600)
    assert inside
    assert elapsed < 600.0


# ---------------------------------------------------------------- criterion 7


def test_c7_binomial_tail_bounds():
    t0 = time.time()
    checked = 0
    ok = True
    for n in (20, 40):
        d = _d(n)
        for i in range(d.N + 1):
            tail = an.binomial_tail(i, d)
            if not tail.bounds_valid:
                continue
            checked += 1
            if not (tail.log_lower_bound - 1e-9 <= tail.log_probability
                    <= tail.log_upper_bound + 1e-9):
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _report("C7 entropy bounds bracket the exact tail", ok,
            f"{checked} tails checked", elapsed, 1)
    assert ok
    assert elapsed < 1.0


# ---------------------------------------------------------------- criterion 8


def test_c8_rate_exponent_sweep(tmp_path):
    from dyner.svgplot import write_line_svg

    t0 = time.time()
    grid = [round(0.01 * k, 2) for k in range(1, 80)]
    rows = [an.rate_functions(e) for e in grid]
    strict = all(r.k > r.i1 for r in rows)
    r_small = an.rate_functions(0.005)
    approx = an.rate_functions_small_eps(0.005)
    k_ratio = r_small.k / approx.k
    i1_ratio = r_small.i1 / approx.i1
    slopes_ok = abs(k_ratio - 1.0) <= 0.1 and abs(i1_ratio - 1.0) <= 0.1
    svg_path = tmp_path / "rates.svg"
    write_line_svg(svg_path, grid, {"K": [r.k for r in rows], "I1": [r.i1 for r in rows]})
    svg = svg_path.read_text()
    svg_ok = svg.count("<polyline") == 2
    elapsed = time.time() - t0
    ok = strict and slopes_ok and svg_ok and elapsed < 1.0
    _report("C8 rate-exponent sweep and figure", ok,
            f"K>I1 strict {strict}, slope ratios {k_ratio:.3f}/{i1_ratio:.3f}, "
            f"{svg.count('<polyline')} curves", elapsed, 1)
    assert strict
    assert slopes_ok
    assert svg_ok
    assert elapsed < 1.0


# ---------------------------------------------------------------- criterion 9


def test_c9_static_supercritical_fraction():
    t0 = time.time()
    n = 2000
    m = closest_integer(an.c_epsilon(0.5) * n)
    sizes = comp.static_largest_samples(n, m, 50, seed=9001, workers=WORKERS)
    fraction = float(np.mean(sizes)) / n
    elapsed = time.time() - t0
    ok = 0.45 <= fraction <= 0.55 and elapsed < 30.0
    _report("C9 static largest-component fraction", ok,
            f"m={m}, mean |C|/n = {fraction:.4f}", elapsed, 30)
    assert m == 1386
    assert 0.45 <= fraction <= 0.55
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 10


def test_c10_component_emergence_domination():
    t0 = time.time()
    d = _d(500)
    flags = comp.domination_samples(d, 0.3, 0.1, 50, seed=10001, workers=WORKERS)
    probed = [f for f in flags if f is not None]
    fraction = sum(probed) / len(probed)
    elapsed = time.time() - t0
    ok = len(probed) == 50 and fraction >= 0.9 and elapsed < 300.0
    _report("C10 pathwise domination of component emergence", ok,
            f"fraction {fraction:.3f} over {len(probed)} runs", elapsed, 300)
    assert len(probed) == 50
    assert fraction >= 0.9
    assert elapsed < 300.0


# ---------------------------------------------------------------- criterion 11


def _c11_stops(n):
    # start j, target i and floor s
    return round(0.7 * n), round(0.9 * n), n // 2


@lru_cache(maxsize=1)
def _c11_estimates():
    return {n: sim.sample_escape_probability(_d(n), *_c11_stops(n), 3000, seed=11000 + n,
                                             workers=WORKERS)
            for n in (20, 40, 60)}


def test_c11_escape_probability_decays():
    t0 = time.time()
    estimates = _c11_estimates()
    decreasing = estimates[20].mean > estimates[40].mean > estimates[60].mean
    separated = not estimates[20].overlaps(estimates[60])
    elapsed = time.time() - t0
    ok = decreasing and separated and elapsed < 300.0
    _report("C11 escape probability decays in n", ok,
            ", ".join(f"n={n}: {estimates[n].mean:.4f}+-{estimates[n].half_width:.4f}"
                      for n in (20, 40, 60)),
            elapsed, 300)
    assert decreasing
    assert separated
    assert elapsed < 300.0


def test_c11b_escape_probability_exact():
    # the scale-function law beside C11's samples: it falls strictly in n,
    # and each sample lies within 5 standard errors of it
    t0 = time.time()
    estimates = _c11_estimates()
    exact = {n: an.escape_probability(*_c11_stops(n), _d(n)).value for n in (20, 40, 60)}
    z = {n: (e.mean - exact[n]) * Z95 / e.half_width for n, e in estimates.items()}
    decreasing = exact[20] > exact[40] > exact[60]
    agrees = all(abs(v) <= 5.0 for v in z.values())
    elapsed = time.time() - t0
    ok = decreasing and agrees and elapsed < 300.0
    _report("C11b escape probability against its exact law", ok,
            ", ".join(f"n={n}: exact {exact[n]:.5f}, z={z[n]:+.2f}" for n in (20, 40, 60)),
            elapsed, 300)
    assert decreasing
    assert agrees
    assert elapsed < 300.0


# ---------------------------------------------------------------- criterion 12


def _run_cli(*argv, workers=None):
    # a RuntimeWarning fails the command, as it fails a test in-process
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "dyner", *argv]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    return subprocess.run(cmd, capture_output=True, env=env)


def test_c12_cli_determinism():
    t0 = time.time()
    hitting = ("simulate", "hitting", "--n", "20", "--from", "0", "--to", "6",
               "--replicas", "10000", "--seed", "42")
    first = _run_cli(*hitting)
    second = _run_cli(*hitting)
    repeat_ok = first.returncode == 0 and first.stdout == second.stdout
    small = ("simulate", "hitting", "--n", "8", "--from", "0", "--to", "5",
             "--replicas", "200", "--seed", "7")
    w1 = _run_cli(*small, workers=1)
    w3 = _run_cli(*small, workers=3)
    static = ("components", "static", "--n", "200", "--eps", "0.5",
              "--replicas", "24", "--seed", "3")
    s1 = _run_cli(*static, workers=1)
    s2 = _run_cli(*static, workers=2)
    workers_ok = w1.stdout == w3.stdout and s1.stdout == s2.stdout
    elapsed = time.time() - t0
    ok = repeat_ok and workers_ok and elapsed < 60.0
    _report("C12 byte-identical reruns across worker counts", ok,
            f"repeat {repeat_ok}, workers {workers_ok}", elapsed, 60)
    assert repeat_ok
    assert workers_ok
    assert elapsed < 60.0
