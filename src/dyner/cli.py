"""Command-line front end: exact analytics, simulations, CSV/JSON/SVG output.

Every simulation command is reproducible from its output metadata alone
(params + seed + version); replica results do not depend on the worker
count.  Exit codes: 0 ok, 2 validation failure, 3 cap exceeded with no
usable result.
"""

import argparse
import json
import math
import os
import secrets
import sys
from dataclasses import dataclass

from . import __version__
from . import analytic as an
from . import components as comp
from . import simulate as sim
from .model import ModelParams, closest_integer, derive
from .stats import ks_distance, mean_ci
from .svgplot import write_line_svg

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
WORKERS_ENV = "DYNER_WORKERS"

# config-file key, args/dataclass field, parser
_CONFIG_FIELDS = (
    ("n", "n", int),
    ("alpha", "alpha", float),
    ("beta", "beta", float),
    ("seed", "seed", int),
    ("replicas", "replicas", int),
    ("workers", "workers", int),
    ("format", "format", str),
    ("output", "output", str),
    ("cap", "cap", float),
    ("horizon", "horizon", float),
    ("t", "t", float),
    ("c", "c", float),
    ("eps", "eps", float),
    ("delta", "delta", float),
    ("i", "i", int),
    ("m", "m", int),
    ("start", "start", int),
    ("from", "from_count", float),
    ("to", "to_count", float),
    ("floor", "floor_count", int),
    ("from-state", "from_state", int),
    ("to-state", "to_state", int),
    ("eps-min", "eps_min", float),
    ("eps-max", "eps_max", float),
    ("step", "step", float),
    ("svg", "svg", str),
)


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Flat key=value run configuration; flags override file values."""

    n: int | None = None
    alpha: float | None = None
    beta: float | None = None
    seed: int | None = None
    replicas: int | None = None
    workers: int | None = None
    format: str | None = None
    output: str | None = None
    cap: float | None = None
    horizon: float | None = None
    t: float | None = None
    c: float | None = None
    eps: float | None = None
    delta: float | None = None
    i: int | None = None
    m: int | None = None
    start: int | None = None
    from_count: float | None = None
    to_count: float | None = None
    floor_count: int | None = None
    from_state: int | None = None
    to_state: int | None = None
    eps_min: float | None = None
    eps_max: float | None = None
    step: float | None = None
    svg: str | None = None

    def to_text(self) -> str:
        lines = []
        for key, field, typ in _CONFIG_FIELDS:
            value = getattr(self, field)
            if value is None:
                continue
            if typ is float:
                lines.append(f"{key}={value!r}")
            else:
                lines.append(f"{key}={value}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        by_key = {key: (field, typ) for key, field, typ in _CONFIG_FIELDS}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno} is not key=value: {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in by_key:
                raise ValueError(f"unknown config key {key!r} on line {lineno}")
            field, typ = by_key[key]
            try:
                values[field] = typ(val)
            except ValueError as exc:
                raise ValueError(f"bad value for {key!r} on line {lineno}: {val!r}") from exc
        return cls(**values)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            flag = name.replace("_count", "").replace("_", "-")
            raise ValueError(f"missing required option --{flag}")


def _derived(args):
    _require(args, "n")
    return derive(ModelParams(args.n, args.alpha, args.beta))


def _as_count(value, flag):
    if not math.isfinite(value) or value != int(value):
        raise ValueError(f"--{flag} must be an integer edge count, got {value!r}")
    return int(value)


def _fmt_value(v, summary=False):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.9g}" if summary else repr(v)
    return str(v)


def _render_csv(meta, header, records) -> str:
    lines = [f"# {k}={_fmt_value(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    for rec in records:
        summary = rec.get("row") == "summary"
        lines.append(",".join(_fmt_value(rec.get(col), summary=summary) for col in header))
    return "\n".join(lines) + "\n"


def _render_json(meta, header, records) -> str:
    doc = {
        "meta": dict(meta),
        "rows": [{col: rec.get(col) for col in header if col in rec} for rec in records],
    }
    return json.dumps(doc, indent=2) + "\n"


def _deliver(args, meta, header, records) -> None:
    if args.format == "json":
        text = _render_json(meta, header, records)
    else:
        text = _render_csv(meta, header, records)
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _meta(args, subcommand, **extra):
    meta = {"command": f"{args.command} {subcommand}", "version": __version__}
    for key in ("n", "alpha", "beta"):
        value = getattr(args, key, None)
        if value is not None:
            meta[key] = value
    for key, value in extra.items():
        if value is not None:
            meta[key] = value
    return meta


# ---------------------------------------------------------------- analytic


def _cmd_analytic_transition(args):
    d = _derived(args)
    _require(args, "t", "from_state", "to_state")
    prob = an.transition_probability(args.from_state, args.to_state, args.t, d)
    meta = _meta(args, "transition", t=args.t, from_state=args.from_state,
                 to_state=args.to_state)
    header = ["from_state", "to_state", "t", "probability"]
    records = [{"from_state": args.from_state, "to_state": args.to_state,
                "t": args.t, "probability": prob}]
    _deliver(args, meta, header, records)
    return EXIT_OK


def _cmd_analytic_stationarity(args):
    d = _derived(args)
    _require(args, "t")
    meta = _meta(args, "stationarity", t=args.t)
    header = ["t", "cdf", "separation", "mean_time"]
    records = [{
        "t": args.t,
        "cdf": an.stationarity_cdf(args.t, d),
        "separation": an.graph_separation(args.t, d),
        "mean_time": an.expected_stationarity_time(d),
    }]
    _deliver(args, meta, header, records)
    return EXIT_OK


def _cmd_analytic_hitting(args):
    d = _derived(args)
    _require(args, "from_count", "to_count")
    j = _as_count(args.from_count, "from")
    i = _as_count(args.to_count, "to")
    value = an.expected_hitting(j, i, d)
    meta = _meta(args, "hitting", **{"from": j, "to": i})
    header = ["from", "to", "log_time", "time"]
    records = [{
        "from": j,
        "to": i,
        "log_time": value.log_value,
        "time": value.value if value.is_representable else None,
    }]
    _deliver(args, meta, header, records)
    return EXIT_OK


def _cmd_analytic_fluid(args):
    d = _derived(args)
    _require(args, "from_count", "to_count")
    c_start, c_end = args.from_count, args.to_count
    boundary = d.beta / (2.0 * d.alpha)
    touches = c_start == boundary or c_end == boundary
    straddles = (c_start - boundary) * (c_end - boundary) < 0
    if touches or straddles:
        print(
            f"error: densities ({c_start}, {c_end}) touch or straddle the fluid "
            f"fixed point beta/(2 alpha) = {boundary}; no finite fluid limit "
            "exists there - at that density the expected hitting time grows "
            "logarithmically in n",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    value = an.fluid_time(c_start, c_end, d)
    meta = _meta(args, "fluid", **{"from": c_start, "to": c_end})
    header = ["from", "to", "time"]
    records = [{"from": c_start, "to": c_end, "time": value}]
    _deliver(args, meta, header, records)
    return EXIT_OK


def _cmd_analytic_entropy(args):
    d = _derived(args)
    _require(args, "c")
    ee = an.entropy_exponent(args.c, d)
    meta = _meta(args, "entropy", c=args.c)
    header = ["c", "i", "exact", "asymptotic"]
    records = [{"c": args.c, "i": ee.i, "exact": ee.exact, "asymptotic": ee.asymptotic}]
    _deliver(args, meta, header, records)
    return EXIT_OK


def _cmd_analytic_tail(args):
    d = _derived(args)
    _require(args, "i")
    tail = an.binomial_tail(args.i, d)
    meta = _meta(args, "tail", i=args.i)
    header = ["i", "log_tail", "tail", "log_lower", "log_upper", "bounds_valid"]
    records = [{
        "i": args.i,
        "log_tail": tail.log_probability,
        "tail": tail.probability,
        "log_lower": None if math.isnan(tail.log_lower_bound) else tail.log_lower_bound,
        "log_upper": None if math.isnan(tail.log_upper_bound) else tail.log_upper_bound,
        "bounds_valid": tail.bounds_valid,
    }]
    _deliver(args, meta, header, records)
    return EXIT_OK


def _cmd_analytic_rates(args):
    eps_min = args.eps_min if args.eps_min is not None else 0.01
    eps_max = args.eps_max if args.eps_max is not None else 0.79
    step = args.step if args.step is not None else 0.01
    if step <= 0 or eps_max < eps_min:
        raise ValueError("need step > 0 and eps-max >= eps-min")
    count = int(round((eps_max - eps_min) / step)) + 1
    grid = [round(eps_min + k * step, 12) for k in range(count)]
    rows = [(eps, an.rate_functions(eps)) for eps in grid]
    meta = _meta(args, "rates", eps_min=eps_min, eps_max=eps_max, step=step)
    header = ["eps", "K", "I1"]
    records = [{"eps": eps, "K": r.k, "I1": r.i1} for eps, r in rows]
    _deliver(args, meta, header, records)
    if args.svg:
        write_line_svg(
            args.svg,
            grid,
            {"K": [r.k for _, r in rows], "I1": [r.i1 for _, r in rows]},
            title="component-emergence rate exponents",
            x_label="eps",
            y_label="exponent per vertex",
        )
    return EXIT_OK


# ---------------------------------------------------------------- simulate


def _cmd_simulate_trajectory(args):
    d = _derived(args)
    _require(args, "horizon")
    start = args.start if args.start is not None else 0
    replicas = args.replicas if args.replicas is not None else 1
    meta = _meta(args, "trajectory", seed=args.seed, start=start,
                 horizon=args.horizon, replicas=replicas)
    header = ["replica", "time", "count"]
    records = []
    for r in range(replicas):
        path = sim.simulate_trajectory(d, start, args.horizon, args.seed, replica=r)
        records.extend(
            {"replica": r, "time": t, "count": k} for t, k in path.events
        )
    _deliver(args, meta, header, records)
    return EXIT_OK


def _cmd_simulate_hitting(args):
    d = _derived(args)
    _require(args, "from_count", "to_count", "replicas")
    j = _as_count(args.from_count, "from")
    i = _as_count(args.to_count, "to")
    cap = args.cap if args.cap is not None else sim.default_hitting_cap(d)
    samples = sim.sample_hitting_times(
        d, j, i, args.replicas, args.seed, cap=cap, workers=args.workers
    )
    uncensored = [s.time for s in samples if not s.censored]
    meta = _meta(args, "hitting", seed=args.seed, replicas=args.replicas,
                 cap=cap, **{"from": j, "to": i})
    header = ["row", "replica", "time", "censored", "mean", "half_width", "count"]
    records = [
        {"row": "sample", "replica": s.replica, "time": s.time, "censored": s.censored}
        for s in samples
    ]
    if len(uncensored) >= 2:
        est = mean_ci(uncensored)
        records.append({"row": "summary", "mean": est.mean,
                        "half_width": est.half_width, "count": est.count})
    _deliver(args, meta, header, records)
    return EXIT_OK if uncensored else EXIT_CAP


def _cmd_simulate_stationarity(args):
    d = _derived(args)
    _require(args, "replicas")
    times = sim.sample_stationarity_times(d, args.replicas, args.seed,
                                          workers=args.workers)
    est = mean_ci(times)
    ks = ks_distance(times, lambda t: an.stationarity_cdf(t, d))
    meta = _meta(args, "stationarity", seed=args.seed, replicas=args.replicas)
    header = ["row", "replica", "time", "mean", "half_width", "count", "ks_exact"]
    records = [
        {"row": "sample", "replica": r, "time": t} for r, t in enumerate(times)
    ]
    records.append({"row": "summary", "mean": est.mean, "half_width": est.half_width,
                    "count": est.count, "ks_exact": ks})
    _deliver(args, meta, header, records)
    return EXIT_OK


def _cmd_simulate_renewal(args):
    d = _derived(args)
    _require(args, "c", "replicas")
    if args.replicas < 100:
        raise ValueError(f"need at least 100 replicas, got {args.replicas}")
    i, s = sim.renewal_targets(d, args.c)
    cycles = sim.sample_cycles(d, i, s, args.replicas, args.seed, workers=args.workers)
    est = sim.renewal_from_cycles(d, i, s, cycles)
    meta = _meta(args, "renewal", seed=args.seed, replicas=args.replicas, c=args.c)
    header = ["row", "replica", "time_above", "log_estimate", "estimate",
              "log_half_width", "mean_time_above", "hw_time_above",
              "log_tail", "log_base", "i", "s", "count"]
    records = [
        {"row": "sample", "replica": cy.replica, "time_above": cy.time_above}
        for cy in cycles
    ]
    records.append({
        "row": "summary",
        "log_estimate": est.estimate.log_value,
        "estimate": est.estimate.value if est.estimate.is_representable else None,
        "log_half_width": est.half_width.log_value,
        "mean_time_above": est.time_above.mean,
        "hw_time_above": est.time_above.half_width,
        "log_tail": est.log_tail,
        "log_base": est.base.log_value,
        "i": est.i,
        "s": est.s,
        "count": est.count,
    })
    _deliver(args, meta, header, records)
    return EXIT_OK


def _cmd_simulate_escape(args):
    d = _derived(args)
    _require(args, "from_count", "to_count", "floor_count", "replicas")
    j = _as_count(args.from_count, "from")
    i = _as_count(args.to_count, "to")
    s = args.floor_count
    wins = sim.sample_escapes(d, j, i, s, args.replicas, args.seed, workers=args.workers)
    est = mean_ci(wins)
    meta = _meta(args, "escape", seed=args.seed, replicas=args.replicas,
                 floor=s, **{"from": j, "to": i})
    header = ["row", "replica", "escaped", "mean", "half_width", "count"]
    records = [
        {"row": "sample", "replica": r, "escaped": bool(w)} for r, w in enumerate(wins)
    ]
    records.append({"row": "summary", "mean": est.mean,
                    "half_width": est.half_width, "count": est.count})
    _deliver(args, meta, header, records)
    return EXIT_OK


# ---------------------------------------------------------------- components


def _cmd_components_static(args):
    _require(args, "n", "replicas")
    if args.m is not None:
        m = args.m
    else:
        _require(args, "eps")
        m = closest_integer(an.c_epsilon(args.eps) * args.n)
    sizes = comp.static_largest_samples(args.n, m, args.replicas, args.seed,
                                        workers=args.workers)
    fractions = [size / args.n for size in sizes]
    est = mean_ci(fractions)
    meta = _meta(args, "static", seed=args.seed, replicas=args.replicas,
                 eps=args.eps, m=m)
    header = ["row", "replica", "largest", "fraction", "mean", "half_width", "count"]
    records = [
        {"row": "sample", "replica": r, "largest": size, "fraction": size / args.n}
        for r, size in enumerate(sizes)
    ]
    records.append({"row": "summary", "mean": est.mean,
                    "half_width": est.half_width, "count": est.count})
    _deliver(args, meta, header, records)
    return EXIT_OK


def _cmd_components_emergence(args):
    d = _derived(args)
    _require(args, "eps", "delta", "replicas")
    cap = args.cap if args.cap is not None else sim.default_hitting_cap(d)
    samples = comp.emergence_samples(
        d, args.eps, args.delta, args.replicas, args.seed, cap=cap,
        workers=args.workers,
    )
    probed = [s for s in samples if not s.edges_censored]
    meta = _meta(args, "emergence", seed=args.seed, replicas=args.replicas,
                 eps=args.eps, delta=args.delta, cap=cap)
    header = ["row", "replica", "tau_component", "component_censored",
              "tau_edges", "edges_censored", "dominated",
              "domination_fraction", "count"]
    records = [
        {
            "row": "sample",
            "replica": s.replica,
            "tau_component": s.tau_component,
            "component_censored": s.component_censored,
            "tau_edges": s.tau_edges,
            "edges_censored": s.edges_censored,
            "dominated": s.dominated,
        }
        for s in samples
    ]
    if probed:
        fraction = sum(1 for s in probed if s.dominated) / len(probed)
        records.append({"row": "summary", "domination_fraction": fraction,
                        "count": len(probed)})
    _deliver(args, meta, header, records)
    return EXIT_OK if probed else EXIT_CAP


# ---------------------------------------------------------------- wiring


def _add_common(p, *, seeded=False):
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--output", help="output path, '-' for stdout (default)")
    if seeded:
        p.add_argument("--seed", type=int)
        p.add_argument("--replicas", type=int)
        p.add_argument("--workers", type=int)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dyner",
        description="simulation and exact analytics for the dynamic Erdos-Renyi graph",
    )
    top.add_argument("--version", action="version", version=f"dyner {__version__}")
    commands = top.add_subparsers(dest="command", required=True)

    pa = commands.add_parser("analytic", help="closed-form quantities")
    suba = pa.add_subparsers(dest="subcommand", required=True)

    p = suba.add_parser("transition", help="single-edge transition probability")
    _add_common(p)
    p.add_argument("--t", type=float)
    p.add_argument("--from-state", dest="from_state", type=int, choices=(0, 1))
    p.add_argument("--to-state", dest="to_state", type=int, choices=(0, 1))
    p.set_defaults(func=_cmd_analytic_transition)

    p = suba.add_parser("stationarity", help="law of the fastest time to stationarity")
    _add_common(p)
    p.add_argument("--t", type=float)
    p.set_defaults(func=_cmd_analytic_stationarity)

    p = suba.add_parser("hitting", help="exact expected hitting time of an edge count")
    _add_common(p)
    p.add_argument("--from", dest="from_count", type=float)
    p.add_argument("--to", dest="to_count", type=float)
    p.set_defaults(func=_cmd_analytic_hitting)

    p = suba.add_parser("fluid", help="fluid-limit travel time between densities")
    _add_common(p)
    p.add_argument("--from", dest="from_count", type=float)
    p.add_argument("--to", dest="to_count", type=float)
    p.set_defaults(func=_cmd_analytic_fluid)

    p = suba.add_parser("entropy", help="stationary tail exponent at density c")
    _add_common(p)
    p.add_argument("--c", type=float)
    p.set_defaults(func=_cmd_analytic_entropy)

    p = suba.add_parser("tail", help="exact binomial tail with entropy bounds")
    _add_common(p)
    p.add_argument("--i", type=int)
    p.set_defaults(func=_cmd_analytic_tail)

    p = suba.add_parser("rates", help="component-emergence rate exponents sweep")
    _add_common(p)
    p.add_argument("--eps-min", dest="eps_min", type=float)
    p.add_argument("--eps-max", dest="eps_max", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--svg", help="also write an SVG plot of both curves")
    p.set_defaults(func=_cmd_analytic_rates)

    ps = commands.add_parser("simulate", help="exact stochastic simulation")
    subs = ps.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("trajectory", help="event-timed edge-count paths")
    _add_common(p, seeded=True)
    p.add_argument("--start", type=int)
    p.add_argument("--horizon", type=float)
    p.set_defaults(func=_cmd_simulate_trajectory)

    p = subs.add_parser("hitting", help="first-passage samples of an edge count")
    _add_common(p, seeded=True)
    p.add_argument("--from", dest="from_count", type=float)
    p.add_argument("--to", dest="to_count", type=float)
    p.add_argument("--cap", type=float)
    p.set_defaults(func=_cmd_simulate_hitting)

    p = subs.add_parser("stationarity", help="samples of the fastest time to stationarity")
    _add_common(p, seeded=True)
    p.set_defaults(func=_cmd_simulate_stationarity)

    p = subs.add_parser("renewal", help="regenerative estimate of a supercritical hitting time")
    _add_common(p, seeded=True)
    p.add_argument("--c", type=float)
    p.set_defaults(func=_cmd_simulate_renewal)

    p = subs.add_parser("escape", help="probability of reaching --to before --floor")
    _add_common(p, seeded=True)
    p.add_argument("--from", dest="from_count", type=float)
    p.add_argument("--to", dest="to_count", type=float)
    p.add_argument("--floor", dest="floor_count", type=int)
    p.set_defaults(func=_cmd_simulate_escape)

    pc = commands.add_parser("components", help="labeled-graph component experiments")
    subc = pc.add_subparsers(dest="subcommand", required=True)

    p = subc.add_parser("static", help="largest component of uniform graphs with m edges")
    _add_common(p, seeded=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--m", type=int)
    p.set_defaults(func=_cmd_components_static)

    p = subc.add_parser("emergence", help="component emergence vs the edge-count proxy")
    _add_common(p, seeded=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--cap", type=float)
    p.set_defaults(func=_cmd_components_emergence)

    return top


def _finalize(args):
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            cfg = RunConfig.from_text(fh.read())
        for _, field, _ in _CONFIG_FIELDS:
            if hasattr(args, field) and getattr(args, field) is None:
                value = getattr(cfg, field)
                if value is not None:
                    setattr(args, field, value)
    if getattr(args, "alpha", None) is None:
        args.alpha = 1.0
    if getattr(args, "beta", None) is None:
        args.beta = 1.0
    if getattr(args, "format", None) is None:
        args.format = "csv"
    if hasattr(args, "workers") and args.workers is None:
        args.workers = int(os.environ.get(WORKERS_ENV, "1"))
    if hasattr(args, "seed") and args.seed is None:
        args.seed = secrets.randbits(63)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _finalize(args)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
