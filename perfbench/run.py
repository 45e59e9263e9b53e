"""dyner benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload count_chain --seed 1 --seconds 30 --trace 0

Untraced (--trace 0): the workload's job list runs in passes, at least
one, for about --seconds in all; each pass draws fresh inputs from
(seed, pass).  Before every job, and before every part of a job that runs
in parts, the run times a fixed reference piece of work, so that each
part's time can be taken relative to the host's speed at that moment.  It
reports the job list's time at the reference speed (wall_norm_s: each
job's median over the passes, summed), the median time for a fresh
interpreter to import every dyner module (setup_s) and the peak resident
memory of this process and its children (peak_rss_mb).  The raw pass
times go to the metadata line.

Traced (--trace 1): one untraced pass of the workload, then one pass of
every workload plus the per-layer probes with spans around each public
dyner call.  It reports the per-layer metrics, each layer's self time and
call count, and the tracing overhead (traced minus untraced wall time of
the chosen workload).  Spans go to perfbench/out/.

Every job's output is checked; the last stdout line is
{"correct", "attempted", "failed", "metrics"}, the line before it holds
the run metadata.  Exit code 2 when the dyner sources are missing.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("count_chain", "labeled_sparse", "labeled_dense", "exact_analytic",
                  "cli_readme")

# The host's speed drifts by up to 1.6x within seconds, and both wall and
# CPU time follow it.  A job's time divided by the time of a fixed reference
# piece run just before it does not, as long as the job is short against the
# host's spells of one speed; so jobs of many replicas run in parts of tens
# of milliseconds, each timed against the piece just before it.  wall_norm_s
# is the sum of those ratios in units of REFERENCE_S: seconds on a host
# where one piece takes 2.5 ms.
REFERENCE_S = 0.0025
REFERENCE_PIECES = 2


def _reference_piece() -> float:
    """Seconds for a fixed birth-death chain: a Python event loop fed by numpy
    uniforms, the shape of dyner's kernels, but sharing no code with dyner."""
    import numpy as np

    t0 = time.perf_counter()
    k, t = 0, 0.0
    for batch in range(8):
        u = np.random.default_rng(batch).random(1024).tolist()
        for i in range(0, 1024, 2):
            up, down = 40 - k, k
            total = up + down
            t -= math.log(1.0 - u[i]) / total
            k += 1 if u[i + 1] * total < up else -1
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Median time of one reference piece, measured now."""
    return statistics.median(_reference_piece() for _ in range(REFERENCE_PIECES))


@dataclass
class PassResult:
    wall: float
    metrics: dict
    failures: list = field(default_factory=list)
    attempted: int = 0
    relative: dict = field(default_factory=dict)  # job -> seconds / reference seconds


def _run_jobs(jobs, tracer=None, workload="", reference=None):
    """Run the jobs in order; returns (results, seconds per job, relative).

    With a reference, relative maps each job to the sum over its parts of
    the part's time divided by the reference time measured just before it.
    """
    results, seconds, relative = {}, {}, {}
    for job in jobs:
        seconds[job.name] = relative[job.name] = 0.0
        parts = []
        try:
            for k in range(job.parts):
                ref = reference() if reference else None
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        parts.append(_run_part(job, results, k))
                    else:
                        with tracer.span(f"{workload}/{job.name}", job.layer):
                            parts.append(_run_part(job, results, k))
                finally:
                    spent = time.perf_counter() - t0
                    seconds[job.name] += spent
                    if ref:
                        relative[job.name] += spent / ref
            results[job.name] = parts[0] if job.parts == 1 else [r for p in parts for r in p]
        except Exception as exc:  # a job that raises is a failed job, not a dead run
            results[job.name] = exc
    return results, seconds, relative


def _run_part(job, done, k):
    return job.run(done) if job.parts == 1 else job.run(done, k)


def _check_jobs(jobs, results, seconds, relative, workload) -> PassResult:
    failures, metrics = [], {}
    for job in jobs:
        result = results[job.name]
        try:
            if isinstance(result, Exception):
                raise result
            job.check(result, results)
            metrics.update(job.metrics(result, seconds[job.name]))
        except Exception as exc:
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            failures.append(f"{workload}/{job.name}: {detail}")
    return PassResult(sum(seconds.values()), metrics, failures, len(jobs), relative)


def _one_pass(wl, workload, seed, index, sizes, workdir, reference=None) -> PassResult:
    jobs = wl.WORKLOADS[workload].jobs(wl.Inputs(seed, workload, index, sizes, workdir))
    gc.collect()
    return _check_jobs(jobs, *_run_jobs(jobs, reference=reference), workload)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _untraced(wl, workload, seed, seconds, sizes, workdir):
    # measure() has imported dyner already, so the byte-code cache is warm.
    # Set-up samples sit between passes so that they see the host's speed
    # over the whole run, not only at its start.
    passes, setup, references = [], [], []

    def reference():
        references.append(reference_seconds())
        return references[-1]

    start = time.perf_counter()
    # Start another pass while half of a typical one still fits in --seconds.
    while not passes or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) <= seconds:
        if len(setup) < sizes.import_repeats:
            setup += wl.import_seconds(wl.ALL_MODULES, 1)
        passes.append(_one_pass(wl, workload, seed, len(passes), sizes, workdir, reference))
    setup += wl.import_seconds(wl.ALL_MODULES, sizes.import_repeats - len(setup))
    # Each job's median over the passes, so a pass that met a slow spell of
    # the host does not move the result.
    relative = sum(statistics.median(p.relative[job] for p in passes)
                   for job in passes[0].relative)
    metrics = {
        "wall_norm_s": (REFERENCE_S * relative, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    extra = {"pass_wall_s": [p.wall for p in passes], "setup_samples_s": setup,
             "reference_median_s": statistics.median(references)}
    return metrics, passes, extra


def unit_of(name: str) -> str:
    if name.endswith("events_per_s"):
        return "1/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("speedup_w2"):
        return "x"
    if name.endswith(".calls"):
        return "count"
    return "s"


def _traced(wl, workload, seed, sizes, workdir):
    from tracing import Tracer

    untraced = _one_pass(wl, workload, seed, 0, sizes, workdir)
    tracer = Tracer()
    tracer.install()
    sweep = {}
    try:
        for name in WORKLOAD_NAMES:
            tracer.workload = name
            jobs = wl.WORKLOADS[name].jobs(wl.Inputs(seed, name, 0, sizes, workdir))
            gc.collect()
            sweep[name] = (jobs, *_run_jobs(jobs, tracer, name))
        tracer.workload = "probes"
        jobs = wl.probes(wl.Inputs(seed, "probes", 0, sizes, workdir))
        sweep["probes"] = (jobs, *_run_jobs(jobs, tracer, "probes"))
    finally:
        tracer.uninstall()
    passes = [untraced] + [_check_jobs(*run, name) for name, run in sweep.items()]
    values = {}
    for p in passes[1:]:
        values.update(p.metrics)
    values["components.domination.replica_max_s"] = max(
        tracer.durations("components.domination_run"), default=0.0)
    for layer, secs in tracer.self_seconds().items():
        values[f"{layer}.self_s"] = secs
    for layer, count in tracer.layer_calls().items():
        values[f"{layer}.calls"] = count
    traced_wall = sum(sweep[workload][2].values())
    values["trace.overhead_s"] = traced_wall - untraced.wall
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    extra = {"untraced_wall_s": untraced.wall, "traced_wall_s": traced_wall,
             "spans": len(tracer.spans)}
    return metrics, passes, extra, tracer


def _commit() -> str:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes) -> tuple:
    """Run one benchmark invocation; returns (metadata, result line)."""
    import numpy
    import scipy

    import workloads as wl

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, passes, extra, tracer = _traced(wl, workload, seed, sizes, workdir)
        else:
            metrics, passes, extra = _untraced(wl, workload, seed, seconds, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [f for p in passes for f in p.failures]
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "workers": wl.WORKLOADS[workload].workers,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "failures": failures,
        **extra,
    }
    if trace:
        path = OUT / f"trace-{workload}-{seed}.json"
        tracer.write(path, meta)
        meta["trace_file"] = str(path.relative_to(ROOT))
    line = {
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return meta, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dyner" / "__init__.py").is_file():
        print(f"error: dyner sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads as wl

    meta, line = measure(args.workload, args.seed, args.seconds, bool(args.trace), wl.FULL)
    for failure in meta["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
