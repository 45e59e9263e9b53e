"""Job lists of the dyner benchmark: five workloads plus the traced-run probes.

A workload is a fixed list of jobs.  Each job calls into one dyner module
(its layer) and has a gate that checks the result against the package's
exact formulas, never against stored bytes, so a change that alters random
streams is not counted as a failure.  Job inputs come from the workload
seed through `Inputs`; dyner itself only sees the derived integer seeds and
sizes.

Every call into dyner goes through a module attribute (`sim.x`, never
`from dyner.simulate import x`), so the tracer in tracing.py can wrap it.
"""

import csv
import hashlib
import io
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from dyner import analytic as an  # noqa: E402
from dyner import cli  # noqa: E402
from dyner import components as comp  # noqa: E402
from dyner import simulate as sim  # noqa: E402
from dyner import stats  # noqa: E402
from dyner.model import ModelParams, closest_integer, derive  # noqa: E402

# Statistical gates are set to a false-alarm rate of about 1e-6 per check,
# because every run draws fresh inputs: a 95% interval would fail one
# correct job in twenty.
GATE_Z = 5.0  # two-sided normal tail 5.7e-7
GATE_ALPHA = 1e-6  # DKW tail for the KS gate
ORACLE_RTOL = 1e-9  # C1: recursion against the exact rational oracle
CHILD_TIMEOUT_S = 60.0
ALL_MODULES = ("analytic", "cli", "components", "logspace", "model", "simulate", "stats",
               "svgplot")


class GateError(Exception):
    """A job's output failed its correctness gate."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TINY only exercises the harness."""

    super_replicas: int = 2000
    super_parts: int = 40
    fluid_n: int = 2000
    fluid_replicas: int = 200
    fluid_parts: int = 4
    cycle_replicas: int = 1000
    escape_replicas: int = 3000  # per n
    escape_parts: int = 6  # per n
    domination_n: int = 200
    domination_replicas: int = 100
    domination_parts: int = 20
    emergence_replicas: int = 20
    emergence_parts: int = 4
    static_replicas: int = 50
    static_parts: int = 5
    sparse_horizon: float = 100.0
    dense_horizon: float = 1.0
    analytic_n: int = 2000
    oracle_to: int = an.ORACLE_DIMENSION_CAP
    series_points: int = 200
    cli_replica_divisor: int = 1
    trajectory_horizon: float = 100.0
    stationarity_replicas: int = 10_000
    render_replicas: int = 10_000
    pool_replicas: int = 200
    speedup_replicas: int = 1000
    graphstate_pairs: int = 20_000
    import_repeats: int = 7


FULL = Sizes()
TINY = Sizes(
    super_replicas=200, super_parts=2, fluid_n=200, fluid_replicas=50, fluid_parts=2,
    cycle_replicas=100, escape_replicas=600, escape_parts=2, domination_n=100,
    domination_replicas=10, domination_parts=2, emergence_replicas=4, emergence_parts=2,
    static_replicas=6, static_parts=2, sparse_horizon=5.0, dense_horizon=0.05, analytic_n=200,
    oracle_to=200, series_points=20, cli_replica_divisor=20, trajectory_horizon=2.0,
    stationarity_replicas=500, render_replicas=500, pool_replicas=50, speedup_replicas=100,
    graphstate_pairs=500, import_repeats=1,
)


@dataclass(frozen=True)
class Inputs:
    """Everything one pass of a workload may depend on."""

    seed: int
    workload: str
    index: int  # pass number within the run
    sizes: Sizes
    workdir: Path

    def seed_for(self, key: str) -> int:
        """63-bit dyner seed for one job, fixed by (seed, workload, pass, key)."""
        text = f"{self.seed}/{self.workload}/{self.index}/{key}".encode()
        return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1

    def integer(self, key: str, lo: int, hi: int) -> int:
        """Integer in [lo, hi] drawn from the same derivation."""
        return lo + self.seed_for(key) % (hi - lo + 1)


def per_part(replicas: int, parts: int) -> int:
    if replicas % parts:
        raise ValueError(f"{replicas} replicas do not split into {parts} equal parts")
    return replicas // parts


@dataclass
class Job:
    """One timed call into a layer.

    run(done) gets the results of the jobs before it in the same pass.
    A job of many replicas runs in parts, each short enough to see one
    speed of the host: run(done, k) for k < parts returns a list, and the
    job's result is the concatenation of those lists.
    check(result, done) raises on a wrong result and runs untimed after the
    pass.  report(result, seconds) maps the job to its per-layer metrics;
    by default that is its wall time as `<layer>.<name>.s`.
    """

    name: str
    layer: str
    run: Callable[..., object]
    check: Callable[[object, dict], None]
    report: Callable[[object, float], dict] | None = None
    parts: int = 1

    def metrics(self, result, seconds: float) -> dict:
        if self.report is None:
            return {f"{self.layer}.{self.name}.s": seconds}
        return self.report(result, seconds)


def _d(n: int, alpha: float = 1.0, beta: float = 1.0):
    return derive(ModelParams(n, alpha, beta))


def child_env() -> dict:
    """Environment for dyner child processes: this checkout's source, default workers."""
    env = dict(os.environ)
    env.pop(cli.WORKERS_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_seconds(modules, repeats: int) -> list:
    """Wall times of fresh interpreters that import the given dyner modules and exit."""
    statement = "import " + ", ".join(f"dyner.{m}" for m in modules)
    argv = [sys.executable, "-c", statement]
    env = child_env()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------- gates


def _widened(est) -> tuple:
    half = est.half_width * GATE_Z / stats.Z95
    return est.mean - half, est.mean + half


def _check_hitting_mean(times, d, j: int, i: int) -> None:
    """Sample mean within the GATE_Z interval of the exact expected_hitting."""
    est = stats.mean_ci(times)
    exact = an.expected_hitting(j, i, d).value
    lo, hi = _widened(est)
    require(lo <= exact <= hi,
            f"E(tau_{j}({i})) at n={d.n}: exact {exact:.6g} outside [{lo:.6g}, {hi:.6g}]")


def _check_hitting_samples(samples, d, j: int, i: int) -> None:
    require(not any(s.censored for s in samples), "censored first-passage sample")
    _check_hitting_mean([s.time for s in samples], d, j, i)


def ks_bound(samples: int) -> float:
    """DKW: P(KS distance > bound) <= GATE_ALPHA for a correct sampler."""
    return math.sqrt(math.log(2.0 / GATE_ALPHA) / (2.0 * samples))


def _verify(state) -> None:
    try:
        state.verify()
    except AssertionError as exc:
        raise GateError(f"GraphState.verify failed: {exc}") from exc


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _series_rtol(d) -> float:
    # The series adds log-gamma terms as large as lgamma(N + 1) (2.7e7 at
    # n = 2000), so it cannot be closer to the recursion than a few
    # roundings of that magnitude; small N keeps C1's 1e-9.
    return max(ORACLE_RTOL, 4.0 * sys.float_info.epsilon * math.lgamma(d.N + 1))


# ---------------------------------------------------------------- count_chain


def count_chain(x: Inputs) -> list:
    z = x.sizes
    d40 = _d(40)
    dfl = _d(z.fluid_n)
    fluid_to = closest_integer(0.3 * z.fluid_n)
    escape_ns = (20, 40, 60)
    super_per = per_part(z.super_replicas, z.super_parts)
    fluid_per = per_part(z.fluid_replicas, z.fluid_parts)
    escape_per = per_part(z.escape_replicas, z.escape_parts)

    def check_cycles(est, done):
        direct = stats.mean_ci([s.time for s in done["hitting_super"]])
        half = est.half_width.value * GATE_Z / stats.Z95
        d_lo, d_hi = _widened(direct)
        r_lo, r_hi = est.estimate.value - half, est.estimate.value + half
        require(max(d_lo, r_lo) <= min(d_hi, r_hi),
                f"renewal [{r_lo:.4g}, {r_hi:.4g}] misses direct [{d_lo:.4g}, {d_hi:.4g}]")

    def escape(_, k):
        n = escape_ns[k // z.escape_parts]
        est = sim.sample_escape_probability(
            _d(n), round(0.7 * n), round(0.9 * n), n // 2, escape_per,
            x.seed_for(f"escape{n}/{k}"))
        return [(n, est)]

    def check_escape(parts, _):
        # Parts of one n hold equal replica counts, so their means pool evenly.
        means = [statistics.fmean(e.mean for m, e in parts if m == n) for n in escape_ns]
        require(all(a > b for a, b in zip(means, means[1:])),
                f"escape estimates not decreasing in n: {means}")

    return [
        Job("hitting_super", "simulate",
            lambda _, k: sim.sample_hitting_times(d40, 0, 32, super_per,
                                                  x.seed_for(f"super/{k}")),
            lambda r, _: _check_hitting_samples(r, d40, 0, 32), parts=z.super_parts),
        Job("hitting_fluid", "simulate",
            lambda _, k: sim.sample_hitting_times(dfl, 0, fluid_to, fluid_per,
                                                  x.seed_for(f"fluid/{k}")),
            lambda r, _: _check_hitting_samples(r, dfl, 0, fluid_to), parts=z.fluid_parts),
        Job("cycles", "simulate",
            lambda _: sim.estimate_hitting_renewal(d40, 0.8, z.cycle_replicas,
                                                   x.seed_for("cycles")),
            check_cycles),
        Job("escape", "simulate", escape, check_escape,
            parts=len(escape_ns) * z.escape_parts),
    ]


# ---------------------------------------------------------------- labeled chain


class _EventCounter:
    """simulate_graph observer that only counts events."""

    def __init__(self):
        self.events = 0

    def __call__(self, _event) -> None:
        self.events += 1


def _graph_job(name: str, d, horizon: float, seed: int) -> Job:
    def run(_):
        counter = _EventCounter()
        state = comp.simulate_graph(d, horizon, seed, observers=(counter,))
        return state, counter.events

    def check(result, _):
        state, events = result
        require(events > 0 and state.time == horizon, "no events up to the horizon")
        _verify(state)

    return Job(name, "components", run, check,
               lambda r, secs: {f"components.{name}.events_per_s": r[1] / secs})


def labeled_sparse(x: Inputs) -> list:
    z = x.sizes
    d_dom = _d(z.domination_n)
    d100 = _d(100)
    static_n = 2000
    static_m = closest_integer(an.c_epsilon(0.5) * static_n)
    domination_per = per_part(z.domination_replicas, z.domination_parts)
    emergence_per = per_part(z.emergence_replicas, z.emergence_parts)
    static_per = per_part(z.static_replicas, z.static_parts)

    def check_domination(flags, _):
        require(None not in flags, f"{flags.count(None)} censored domination flags")

    def check_emergence(samples, _):
        require(not any(s.edges_censored or s.component_censored for s in samples),
                "censored emergence sample")

    def check_static(sizes, _):
        fraction = statistics.fmean(sizes) / static_n
        require(0.45 <= fraction <= 0.55, f"static largest fraction {fraction:.4f}")

    return [
        Job("domination", "components",
            lambda _, k: comp.domination_samples(d_dom, 0.3, 0.1, domination_per,
                                                 x.seed_for(f"domination/{k}")),
            check_domination, parts=z.domination_parts),
        Job("emergence", "components",
            lambda _, k: comp.emergence_samples(d100, 0.3, 0.1, emergence_per,
                                                x.seed_for(f"emergence/{k}")),
            check_emergence, parts=z.emergence_parts),
        Job("static", "components",
            lambda _, k: comp.static_largest_samples(static_n, static_m, static_per,
                                                     x.seed_for(f"static/{k}")),
            check_static, parts=z.static_parts),
        _graph_job("labeled_sparse", _d(500), z.sparse_horizon, x.seed_for("sparse")),
    ]


def labeled_dense(x: Inputs) -> list:
    d = _d(120, 1.0, 2000.0)
    return [_graph_job("labeled_dense", d, x.sizes.dense_horizon, x.seed_for("dense"))]


# ---------------------------------------------------------------- exact_analytic


def exact_analytic(x: Inputs) -> list:
    z = x.sizes
    n = z.analytic_n
    d = _d(n)
    target = x.integer("target", round(0.75 * n), round(0.85 * n))
    tail_i = x.integer("tail", round(0.75 * n), round(0.85 * n))
    oracle_from = x.integer("oracle_from", 0, z.oracle_to // 10)
    stride = n // z.series_points
    offset = x.integer("series_offset", 0, stride - 1)
    points = [offset + k * stride for k in range(z.series_points)]

    def check_expected(value, _):
        steps = [an.expected_hitting_step_series(k, d).log_value for k in range(target)]
        series = math.fsum(math.exp(s - value.log_value) for s in steps)
        require(abs(series - 1.0) <= _series_rtol(d),
                f"E(tau_0({target})): series sum differs by {abs(series - 1.0):.2e}")

    def check_series(values, _):
        rtol = _series_rtol(d)
        for i, v in zip(points, values):
            gap = abs(math.expm1(v.log_value - an.expected_hitting_step(i, d).log_value))
            require(gap <= rtol, f"step {i}: series vs recursion gap {gap:.2e} > {rtol:.1e}")

    def check_oracle(value, _):
        exact = an.expected_hitting(oracle_from, z.oracle_to, d).value
        gap = _rel_gap(exact, value)
        require(gap <= ORACLE_RTOL, f"oracle vs recursion gap {gap:.2e}")

    def check_tail(tail, _):
        require(tail.bounds_valid, f"tail at i={tail_i} has no valid bounds")
        require(tail.log_lower_bound - 1e-9 <= tail.log_probability
                <= tail.log_upper_bound + 1e-9, f"tail at i={tail_i} outside its bounds")

    return [
        Job("expected_hitting", "analytic", lambda _: an.expected_hitting(0, target, d),
            check_expected),
        Job("series", "analytic",
            lambda _: [an.expected_hitting_step_series(i, d) for i in points],
            check_series),
        Job("oracle", "analytic",
            lambda _: an.expected_hitting_oracle(oracle_from, z.oracle_to, d),
            check_oracle),
        Job("binomial_tail", "analytic", lambda _: an.binomial_tail(tail_i, d), check_tail),
    ]


# ---------------------------------------------------------------- cli_readme


def readme_commands(z: Sizes) -> list:
    """(job name, argv, seeded) for each command of README's "Command line" block."""

    def reps(count: int, least: int = 2) -> str:
        return str(max(count // z.cli_replica_divisor, least))

    return [
        ("analytic_hitting", "analytic hitting --n 3 --alpha 1 --beta 1 --from 0 --to 2", False),
        ("analytic_stationarity", "analytic stationarity --n 200 --t 10.6", False),
        ("analytic_fluid", "analytic fluid --n 100 --from 0 --to 0.3", False),
        ("analytic_entropy", "analytic entropy --n 40 --c 0.8", False),
        ("analytic_tail", "analytic tail --n 40 --i 32", False),
        ("analytic_rates",
         "analytic rates --eps-min 0.01 --eps-max 0.79 --step 0.01 --svg rates.svg", False),
        ("simulate_trajectory", "simulate trajectory --n 100 --horizon 2.0", True),
        ("simulate_hitting",
         f"simulate hitting --n 20 --from 0 --to 6 --replicas {reps(10000)}", True),
        ("simulate_stationarity",
         f"simulate stationarity --n 200 --replicas {reps(10000)}", True),
        ("simulate_renewal",
         f"simulate renewal --n 40 --c 0.8 --replicas {reps(1000, 100)}", True),
        ("simulate_escape",
         f"simulate escape --n 40 --from 28 --to 36 --floor 20 --replicas {reps(3000)}", True),
        ("components_static",
         f"components static --n 2000 --eps 0.5 --replicas {reps(50)}", True),
        ("components_emergence",
         f"components emergence --n 100 --eps 0.3 --delta 0.1 --replicas {reps(20)}", True),
    ]


# Commands that run again with --workers 2; their bytes must match the first run.
WORKER_RERUNS = ("simulate_hitting", "components_static")


def _csv_rows(stdout: bytes) -> list:
    lines = [ln for ln in stdout.decode().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _summary(stdout: bytes) -> dict:
    rows = [r for r in _csv_rows(stdout) if r.get("row") == "summary"]
    require(len(rows) == 1, "no summary row")
    return rows[0]


def _cli_extra_checks(workdir: Path) -> dict:
    """Content gates for the commands that have an exact counterpart."""

    def analytic_hitting(out):
        (row,) = _csv_rows(out)
        exact = an.expected_hitting(0, 2, _d(3)).value
        require(_rel_gap(float(row["time"]), exact) <= 1e-12, "analytic hitting value")

    def analytic_rates(_):
        svg = (workdir / "rates.svg").read_text(encoding="utf-8")
        require(svg.count("<polyline") == 2, "rates SVG does not hold two curves")

    def simulate_hitting(out):
        row = _summary(out)
        est = stats.EstimateCI(float(row["mean"]), float(row["half_width"]), int(row["count"]))
        exact = an.expected_hitting(0, 6, _d(20)).value
        lo, hi = _widened(est)
        require(lo <= exact <= hi, f"CLI hitting mean: exact {exact:.6g} outside [{lo}, {hi}]")

    def simulate_stationarity(out):
        row = _summary(out)
        ks, count = float(row["ks_exact"]), int(row["count"])
        require(ks <= ks_bound(count), f"CLI stationarity KS {ks:.4f} > {ks_bound(count):.4f}")

    return {
        "analytic_hitting": analytic_hitting,
        "analytic_rates": analytic_rates,
        "simulate_hitting": simulate_hitting,
        "simulate_stationarity": simulate_stationarity,
    }


def cli_readme(x: Inputs) -> list:
    env = child_env()
    extra = _cli_extra_checks(x.workdir)

    def call(argv):
        cmd = [sys.executable, "-m", "dyner", *argv]
        return subprocess.run(cmd, cwd=x.workdir, env=env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S, check=False)

    def check_call(name, proc):
        require(proc.returncode == 0,
                f"{name} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        require(len(_csv_rows(proc.stdout)) >= 1, f"{name} printed no rows")
        if name in extra:
            extra[name](proc.stdout)

    def check_rerun(base):
        def check(proc, done):
            check_call(f"{base}_w2", proc)
            require(proc.stdout == done[base].stdout,
                    f"{base} output differs between 1 and 2 workers")
        return check

    jobs = []
    for name, command, seeded in readme_commands(x.sizes):
        argv = command.split()
        if seeded:
            argv += ["--seed", str(x.seed_for(name))]
        jobs.append(Job(name, "cli", lambda _, a=argv: call(a),
                        lambda r, _, nm=name: check_call(nm, r)))
        if name in WORKER_RERUNS:
            jobs.append(Job(f"{name}_w2", "cli",
                            lambda _, a=argv: call(a + ["--workers", "2"]),
                            check_rerun(name)))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: Callable[[Inputs], list]
    workers: int  # most worker processes any job asks dyner for


WORKLOADS = {
    w.name: w
    for w in (
        Workload("count_chain", count_chain, 1),
        Workload("labeled_sparse", labeled_sparse, 1),
        Workload("labeled_dense", labeled_dense, 1),
        Workload("exact_analytic", exact_analytic, 1),
        Workload("cli_readme", cli_readme, 2),
    )
}


# ---------------------------------------------------------------- traced-run probes


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


def _workers_pair(fn, *args):
    """Run fn(*args, workers=k) for k = 1, 2; return (t1, t2, identical)."""
    one, t1 = _timed(fn, *args, workers=1)
    two, t2 = _timed(fn, *args, workers=2)
    return t1, t2, one == two


def _check_same(result, _):
    require(result[2], "results differ between 1 and 2 workers")


def _graphstate_add_remove(n: int, pairs: int, seed: int):
    """Time public add_edge + remove_edge on a graph at its stationary density."""
    rng = sim.replica_rng(seed)
    state = comp.GraphState(n)
    present = set()
    while len(present) < n // 2:
        a, b = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        if (a, b) not in present:
            present.add((a, b))
            state.add_edge(a, b)
    absent = []
    while len(absent) < pairs:
        a, b = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        if (a, b) not in present:
            absent.append((a, b))
    add, remove = state.add_edge, state.remove_edge
    t0 = time.perf_counter()
    for a, b in absent:
        add(a, b)
        remove(a, b)
    return state, time.perf_counter() - t0


def probes(x: Inputs) -> list:
    """Per-layer measurements that no workload job isolates on its own."""
    z = x.sizes
    d200 = _d(200)
    d40 = _d(40)
    d20 = _d(20)
    cdf = lambda t: an.stationarity_cdf(t, d200)  # noqa: E731

    def check_trajectory(path, _):
        counts = [k for _, k in path.events]
        require(len(counts) > 1 and all(abs(b - a) == 1 for a, b in zip(counts, counts[1:])),
                "trajectory steps are not +-1")

    def check_ks(ks, done):
        bound = ks_bound(len(done["stationarity"]))
        require(ks <= bound, f"stationarity KS {ks:.4f} > {bound:.4f}")

    def render(_):
        out = x.workdir / "render.csv"
        seed = x.seed_for("render")
        argv = ["simulate", "hitting", "--n", "20", "--from", "0", "--to", "6",
                "--replicas", str(z.render_replicas), "--seed", str(seed),
                "--workers", "1", "--output", str(out)]
        code, t_cli = _timed(cli.main, argv)
        samples, t_lib = _timed(sim.sample_hitting_times, d20, 0, 6,
                                z.render_replicas, seed)
        return code, t_cli - t_lib, out, samples

    def check_render(result, _):
        code, _, out, samples = result
        require(code == 0, f"in-process cli.main exited {code}")
        rows = [r for r in _csv_rows(out.read_bytes()) if r["row"] == "sample"]
        require([float(r["time"]) for r in rows] == [s.time for s in samples],
                "CLI rows differ from the library samples")

    def rates_svg(_):
        svg = x.workdir / "probe_rates.svg"
        argv = ["analytic", "rates", "--svg", str(svg), "--output",
                str(x.workdir / "probe_rates.csv")]
        return cli.main(argv), svg

    def check_rates_svg(result, _):
        code, svg = result
        require(code == 0 and svg.read_text(encoding="utf-8").count("<polyline") == 2,
                "in-process rates SVG")

    return [
        Job("trajectory", "simulate",
            lambda _: sim.simulate_trajectory(_d(2000), 0, z.trajectory_horizon,
                                              x.seed_for("trajectory")),
            check_trajectory,
            lambda r, secs: {"simulate.trajectory.events_per_s": (len(r.events) - 1) / secs}),
        Job("stationarity", "simulate",
            lambda _: sim.sample_stationarity_times(d200, z.stationarity_replicas,
                                                    x.seed_for("stationarity")),
            lambda r, _: None),
        Job("ks_distance", "stats",
            lambda done: stats.ks_distance(done["stationarity"], cdf), check_ks),
        Job("pool", "simulate",
            lambda _: _workers_pair(sim.sample_stationarity_times, d200, z.pool_replicas,
                                    x.seed_for("pool")),
            _check_same,
            lambda r, _: {"simulate.run_replicas.pool_s": r[1] - r[0]}),
        Job("speedup", "simulate",
            lambda _: _workers_pair(sim.sample_hitting_times, d40, 0, 32, z.speedup_replicas,
                                    x.seed_for("speedup")),
            _check_same,
            lambda r, _: {"simulate.run_replicas.speedup_w2": r[0] / r[1]}),
        Job("graphstate", "components",
            lambda _: _graphstate_add_remove(500, z.graphstate_pairs, x.seed_for("graphstate")),
            lambda r, _: _verify(r[0]),
            lambda r, _: {"components.graphstate.add_remove_us": 1e6 * r[1] / z.graphstate_pairs}),
        Job("import", "cli",
            lambda _: statistics.median(import_seconds(("cli",), z.import_repeats)),
            lambda r, _: None,
            lambda r, _: {"cli.import.s": r}),
        Job("render", "cli", render, check_render,
            lambda r, _: {"cli.render.s": r[1]}),
        Job("rates_svg", "cli", rates_svg, check_rates_svg, lambda r, _: {}),
    ]
