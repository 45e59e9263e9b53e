"""Command-line front end: exact analytics, simulations, CSV/JSON/SVG output.

Every simulation command is reproducible from its output metadata alone
(params + seed + version); replica results do not depend on the worker
count.  Exit codes: 0 ok, 2 validation failure, 3 cap exceeded with no
usable result.

Two tables drive it: _FLAGS declares each option once (its name is both the
flag and the --config key), and _COMMANDS gives each subcommand its flags,
required flags, output header and row builder.
"""

import argparse
import json
import math
import os
import secrets
import sys
from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True, slots=True)
class _Flag:
    """One option.  The default fills a value left unset by both the flag
    and --config; a callable default is called at run time."""

    type: Callable = float
    choices: tuple | None = None
    default: object = None
    help: str | None = None


_FLAGS = {
    "n": _Flag(int),
    "alpha": _Flag(default=1.0),
    "beta": _Flag(default=1.0),
    "format": _Flag(str, ("csv", "json"), "csv"),
    "output": _Flag(str, help="output path, '-' for stdout (default)"),
    "seed": _Flag(int, default=lambda: secrets.randbits(63)),
    "replicas": _Flag(int, default=1),
    "workers": _Flag(int, default=lambda: int(os.environ.get(WORKERS_ENV, "1"))),
    "cap": _Flag(),
    "horizon": _Flag(),
    "t": _Flag(),
    "c": _Flag(),
    "eps": _Flag(),
    "delta": _Flag(),
    "i": _Flag(int),
    "m": _Flag(int),
    "start": _Flag(int, default=0),
    "from": _Flag(),
    "to": _Flag(),
    "floor": _Flag(int),
    "from-state": _Flag(int, (0, 1)),
    "to-state": _Flag(int, (0, 1)),
    "eps-min": _Flag(default=0.01),
    "eps-max": _Flag(default=0.79),
    "step": _Flag(default=0.01),
    "svg": _Flag(str, help="also write an SVG plot of both curves"),
}

# Options that choose where the output goes or how fast it is made; the
# meta block echoes every other accepted option, in flag order.
_UNECHOED = ("format", "output", "workers", "svg")


def _require(o, *names):
    for name in names:
        if o.get(name) is None:
            raise ValueError(f"missing required option --{name}")


def _read_config(path) -> dict:
    """Values of a flat key=value file, each parsed by its flag's type and choices."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        flag = _FLAGS.get(key)
        if flag is None:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        try:
            value = flag.type(val)
        except ValueError:
            value = None
        if value is None or (flag.choices and value not in flag.choices):
            raise ValueError(f"bad value for {key!r} on line {lineno}: {val!r}")
        values[key] = value
    return values


def _options(spec, args) -> dict:
    """Flags, then --config values for flags left unset, then defaults."""
    o = {name: getattr(args, name) for name in spec.flags.split()}
    if args.config:
        for key, value in _read_config(args.config).items():
            if key in o and o[key] is None:
                o[key] = value
    _require(o, *spec.required.split())
    for name, value in o.items():
        if value is None:
            default = _FLAGS[name].default
            o[name] = default() if callable(default) else default
    return o


def _as_count(o, flag):
    value = o[flag]
    if not math.isfinite(value) or value != int(value):
        raise ValueError(f"--{flag} must be an integer edge count, got {value!r}")
    o[flag] = int(value)
    return o[flag]


def _fmt_value(v, summary=False):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.9g}" if summary else repr(v)
    return str(v)


def _json_value(v):
    return repr(v) if isinstance(v, float) and not math.isfinite(v) else v  # JSON has no inf/nan


def _deliver(o, meta, header, records) -> None:
    if o["format"] == "json":
        rows = [{col: _json_value(rec[col]) for col in header if col in rec} for rec in records]
        meta = {k: _json_value(v) for k, v in meta.items()}
        text = json.dumps({"meta": meta, "rows": rows}, indent=2, allow_nan=False) + "\n"
    else:
        lines = [f"# {k}={_fmt_value(v)}" for k, v in meta.items()]
        lines.append(",".join(header))
        for rec in records:
            summary = rec.get("row") == "summary"
            lines.append(",".join(_fmt_value(rec.get(col), summary) for col in header))
        text = "\n".join(lines) + "\n"
    if o["output"] in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(o["output"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _samples(rows, values=None, **summary):
    """Per-replica rows, then a summary row: the given fields, plus mean_ci of
    the values when there are at least two."""
    records = [{"row": "sample", **row} for row in rows]
    if values is not None and len(values) >= 2:
        est = mean_ci(values)
        summary = {"mean": est.mean, "half_width": est.half_width, "count": est.count,
                   **summary}
    if summary:
        records.append({"row": "summary", **summary})
    return records


# ---------------------------------------------------------------- row builders
# Each takes the options and the derived model (None for model=False); it may
# resolve an option in place (an integer count, a default cap), and the meta
# block then echoes the resolved value.


def _transition(o, d):
    prob = an.transition_probability(o["from-state"], o["to-state"], o["t"], d)
    return [{"from_state": o["from-state"], "to_state": o["to-state"], "t": o["t"],
             "probability": prob}]


def _stationarity_law(o, d):
    return [{
        "t": o["t"],
        "cdf": an.stationarity_cdf(o["t"], d),
        "separation": an.graph_separation(o["t"], d),
        "mean_time": an.expected_stationarity_time(d),
    }]


def _expected_hitting(o, d):
    j, i = _as_count(o, "from"), _as_count(o, "to")
    value = an.expected_hitting(j, i, d)
    return [{"from": j, "to": i, "log_time": value.log_value,
             "time": value.value if value.is_representable else None}]


def _fluid(o, d):
    return [{"from": o["from"], "to": o["to"], "time": an.fluid_time(o["from"], o["to"], d)}]


def _entropy(o, d):
    ee = an.entropy_exponent(o["c"], d)
    return [{"c": o["c"], "i": ee.i, "exact": ee.exact, "asymptotic": ee.asymptotic}]


def _tail(o, d):
    tail = an.binomial_tail(o["i"], d)
    return [{
        "i": o["i"],
        "log_tail": tail.log_probability,
        "tail": tail.probability,
        "log_lower": None if math.isnan(tail.log_lower_bound) else tail.log_lower_bound,
        "log_upper": None if math.isnan(tail.log_upper_bound) else tail.log_upper_bound,
        "bounds_valid": tail.bounds_valid,
    }]


def _rates(o, _):
    eps_min, eps_max, step = o["eps-min"], o["eps-max"], o["step"]
    if not (step > 0 and eps_max >= eps_min):
        raise ValueError("need step > 0 and eps-max >= eps-min")
    span = (eps_max - eps_min) / step
    if not math.isfinite(span):
        raise ValueError(f"cannot round {span!r} to an integer")
    # the grid ends at the last point at or below eps-max, give or take 1e-9 steps
    count = math.floor(span + 1e-9) + 1
    for eps in (eps_min, eps_max):  # a bad end fails here, before any grid is built
        an.rate_functions(eps)
    if count > 10**6:
        raise ValueError(f"need at most 10^6 eps grid points, got {count:.3g}")
    # point 0 is eps-min itself: 0 * step is nan for an infinite step
    grid = [round(eps_min + k * step if k else eps_min, 12) for k in range(count)]
    rates = [an.rate_functions(eps) for eps in grid]
    if o["svg"]:
        write_line_svg(o["svg"], grid, {"K": [r.k for r in rates], "I1": [r.i1 for r in rates]},
                       title="component-emergence rate exponents", x_label="eps",
                       y_label="exponent per vertex")
    return [{"eps": eps, "K": r.k, "I1": r.i1} for eps, r in zip(grid, rates)]


def _trajectory(o, d):
    paths = sim.run_replicas(sim.simulate_trajectory, (d, o["start"], o["horizon"], o["seed"]),
                             o["replicas"], o["workers"])
    return [{"replica": r, "time": t, "count": k}
            for r, path in enumerate(paths) for t, k in path.events]


def _hitting_samples(o, d):
    j, i = _as_count(o, "from"), _as_count(o, "to")
    samples = sim.sample_hitting_times(d, j, i, o["replicas"], o["seed"], cap=o["cap"],
                                       workers=o["workers"])
    o["cap"] = sim._resolve_cap(d, o["cap"])  # after the samplers' own checks
    uncensored = [s.time for s in samples if not s.censored]
    rows = [{"replica": r, "time": s.time, "censored": s.censored} for r, s in enumerate(samples)]
    return _samples(rows, uncensored)


def _stationarity_samples(o, d):
    times = sim.sample_stationarity_times(d, o["replicas"], o["seed"], workers=o["workers"])
    ks = ks_distance(times, lambda t: an.stationarity_cdf(t, d))
    return _samples([{"replica": r, "time": t} for r, t in enumerate(times)], times,
                    ks_exact=ks)


def _renewal(o, d):
    est = sim.estimate_hitting_renewal(d, o["c"], o["replicas"], o["seed"],
                                       workers=o["workers"])
    value = est.estimate
    return _samples(
        [{"replica": r, "time_above": above} for r, above in enumerate(est.cycles)],
        log_estimate=value.log_value, estimate=value.value if value.is_representable else None,
        log_half_width=est.half_width.log_value, mean_time_above=est.time_above.mean,
        hw_time_above=est.time_above.half_width, log_tail=est.log_tail,
        log_base=est.base.log_value, i=est.i, s=est.s, count=est.time_above.count)


def _escape(o, d):
    j, i = _as_count(o, "from"), _as_count(o, "to")
    wins = sim.sample_escapes(d, j, i, o["floor"], o["replicas"], o["seed"],
                              workers=o["workers"])
    return _samples([{"replica": r, "escaped": bool(w)} for r, w in enumerate(wins)], wins)


def _static(o, _):
    if o["m"] is None:
        _require(o, "eps")
        o["m"] = closest_integer(an.c_epsilon(o["eps"]) * o["n"])
    sizes = comp.static_largest_samples(o["n"], o["m"], o["replicas"], o["seed"],
                                        workers=o["workers"])
    rows = [{"replica": r, "largest": size, "fraction": size / o["n"]}
            for r, size in enumerate(sizes)]
    return _samples(rows, [row["fraction"] for row in rows])


def _emergence(o, d):
    samples = comp.emergence_samples(d, o["eps"], o["delta"], o["replicas"], o["seed"],
                                     cap=o["cap"], workers=o["workers"])
    o["cap"] = sim._resolve_cap(d, o["cap"])  # after the samplers' own checks
    rows = [{"replica": r, "tau_component": s.tau_component,
             "component_censored": s.component_censored, "tau_edges": s.tau_edges,
             "edges_censored": s.edges_censored, "dominated": s.dominated}
            for r, s in enumerate(samples)]
    probed = [s for s in samples if not s.edges_censored]
    if not probed:
        return _samples(rows)
    fraction = sum(1 for s in probed if s.dominated) / len(probed)
    return _samples(rows, domination_fraction=fraction, count=len(probed))


# ---------------------------------------------------------------- command table


@dataclass(frozen=True, slots=True)
class _Command:
    """One subcommand.  flags, required and header are space-separated names.

    model: the rows need the derived model, so n, alpha and beta are checked.
    censor: the sample column that flags a censored run; when every sample
    is censored the command still prints its rows but exits 3.
    """

    group: str
    name: str
    help: str
    flags: str
    required: str
    header: str
    rows: Callable
    model: bool = True
    censor: str | None = None


_GROUPS = {
    "analytic": "closed-form quantities",
    "simulate": "exact stochastic simulation",
    "components": "labeled-graph component experiments",
}
_COMMON = "n alpha beta format output "

_COMMANDS = (
    _Command("analytic", "transition", "single-edge transition probability",
             _COMMON + "t from-state to-state", "n t from-state to-state",
             "from_state to_state t probability", _transition),
    _Command("analytic", "stationarity", "law of the fastest time to stationarity",
             _COMMON + "t", "n t", "t cdf separation mean_time", _stationarity_law),
    _Command("analytic", "hitting", "exact expected hitting time of an edge count",
             _COMMON + "from to", "n from to", "from to log_time time", _expected_hitting),
    _Command("analytic", "fluid", "fluid-limit travel time between densities",
             _COMMON + "from to", "n from to", "from to time", _fluid),
    _Command("analytic", "entropy", "stationary tail exponent at density c",
             _COMMON + "c", "n c", "c i exact asymptotic", _entropy),
    _Command("analytic", "tail", "exact binomial tail with entropy bounds",
             _COMMON + "i", "n i", "i log_tail tail log_lower log_upper bounds_valid", _tail),
    _Command("analytic", "rates", "component-emergence rate exponents sweep",
             "format output eps-min eps-max step svg", "", "eps K I1", _rates, model=False),
    _Command("simulate", "trajectory", "event-timed edge-count paths",
             _COMMON + "seed start horizon replicas workers", "n horizon",
             "replica time count", _trajectory),
    _Command("simulate", "hitting", "first-passage samples of an edge count",
             _COMMON + "seed replicas cap from to workers", "n from to replicas",
             "row replica time censored mean half_width count", _hitting_samples,
             censor="censored"),
    _Command("simulate", "stationarity", "samples of the fastest time to stationarity",
             _COMMON + "seed replicas workers", "n replicas",
             "row replica time mean half_width count ks_exact", _stationarity_samples),
    _Command("simulate", "renewal", "regenerative estimate of a supercritical hitting time",
             _COMMON + "seed replicas c workers", "n c replicas",
             "row replica time_above log_estimate estimate log_half_width mean_time_above "
             "hw_time_above log_tail log_base i s count", _renewal),
    _Command("simulate", "escape", "probability of reaching --to before --floor",
             _COMMON + "seed replicas floor from to workers", "n from to floor replicas",
             "row replica escaped mean half_width count", _escape),
    _Command("components", "static", "largest component of uniform graphs with m edges",
             "n format output seed replicas eps m workers", "n replicas",
             "row replica largest fraction mean half_width count", _static, model=False),
    _Command("components", "emergence", "component emergence vs the edge-count proxy",
             _COMMON + "seed replicas eps delta cap workers", "n eps delta replicas",
             "row replica tau_component component_censored tau_edges edges_censored "
             "dominated domination_fraction count", _emergence, censor="edges_censored"),
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dyner",
        description="simulation and exact analytics for the dynamic Erdos-Renyi graph",
    )
    top.add_argument("--version", action="version", version=f"dyner {__version__}")
    groups = top.add_subparsers(dest="command", required=True)
    subparsers = {
        group: groups.add_parser(group, help=text).add_subparsers(dest="subcommand",
                                                                  required=True)
        for group, text in _GROUPS.items()
    }
    for spec in _COMMANDS:
        p = subparsers[spec.group].add_parser(spec.name, help=spec.help)
        p.add_argument("--config", help="key=value config file; flags override it")
        for name in spec.flags.split():
            flag = _FLAGS[name]
            p.add_argument(f"--{name}", dest=name, type=flag.type, choices=flag.choices,
                           help=flag.help)
        p.set_defaults(spec=spec)
    return top


def _run(spec, args) -> int:
    o = _options(spec, args)
    d = derive(ModelParams(o["n"], o["alpha"], o["beta"])) if spec.model else None
    records = spec.rows(o, d)
    meta = {"command": f"{spec.group} {spec.name}", "version": __version__}
    for name in spec.flags.split():
        if name not in _UNECHOED and o[name] is not None:
            meta[name.replace("-", "_")] = o[name]
    _deliver(o, meta, spec.header.split(), records)
    if spec.censor and all(r[spec.censor] for r in records if r["row"] == "sample"):
        return EXIT_CAP
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args.spec, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
