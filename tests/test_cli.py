import hashlib
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from dyner.cli import _COMMANDS, _FLAGS, build_parser, main

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv, check_exit=0, capsys=None):
    code = main(list(argv))
    assert code == check_exit, f"exit {code} != {check_exit} for {argv}"


def run_proc(*argv, env_extra=None, timeout=None):
    # a RuntimeWarning fails the command here, as it fails a test in-process
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "dyner", *argv],
        capture_output=True,
        env=env,
        timeout=timeout,
    )


def test_analytic_hitting_value(capsys):
    run_cli("analytic", "hitting", "--n", "3", "--alpha", "1", "--beta", "1",
            "--from", "0", "--to", "2")
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "from,to,log_time,time"
    row = lines[1].split(",")
    assert row[0] == "0" and row[1] == "2"
    assert float(row[3]) == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_missing_required_flag_is_validation_error(capsys):
    assert main(["analytic", "hitting", "--n", "3", "--from", "0"]) == 2
    err = capsys.readouterr().err
    assert "--to" in err


def test_fluid_boundary_maps_to_exit_2(capsys):
    assert main(["analytic", "fluid", "--n", "100", "--alpha", "1", "--beta", "1",
                 "--from", "0", "--to", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "logarithmically" in err


def test_model_validation_exit_2(capsys):
    assert main(["analytic", "stationarity", "--n", "1", "--t", "1.0"]) == 2
    assert "n must be" in capsys.readouterr().err


def test_components_eps_domain_exit_2(capsys):
    assert main(["components", "emergence", "--n", "30", "--eps", "1.5",
                 "--delta", "0.1", "--replicas", "2", "--seed", "1"]) == 2


def test_golden_headers(tmp_path, capsys):
    cases = [
        (["analytic", "transition", "--n", "4", "--t", "0.5",
          "--from-state", "0", "--to-state", "1"],
         "from_state,to_state,t,probability"),
        (["analytic", "stationarity", "--n", "4", "--t", "0.5"],
         "t,cdf,separation,mean_time"),
        (["analytic", "hitting", "--n", "4", "--from", "0", "--to", "2"],
         "from,to,log_time,time"),
        (["analytic", "fluid", "--n", "40", "--from", "0", "--to", "0.3"],
         "from,to,time"),
        (["analytic", "entropy", "--n", "40", "--c", "0.8"],
         "c,i,exact,asymptotic"),
        (["analytic", "tail", "--n", "20", "--i", "12"],
         "i,log_tail,tail,log_lower,log_upper,bounds_valid"),
        (["analytic", "rates", "--eps-min", "0.1", "--eps-max", "0.12",
          "--step", "0.01"],
         "eps,K,I1"),
        (["simulate", "trajectory", "--n", "6", "--horizon", "1.0",
          "--seed", "3"],
         "replica,time,count"),
        (["simulate", "hitting", "--n", "6", "--from", "0", "--to", "3",
          "--replicas", "5", "--seed", "3"],
         "row,replica,time,censored,mean,half_width,count"),
        (["simulate", "stationarity", "--n", "6", "--replicas", "5",
          "--seed", "3"],
         "row,replica,time,mean,half_width,count,ks_exact"),
        (["simulate", "renewal", "--n", "20", "--c", "0.8", "--replicas",
          "100", "--seed", "3"],
         "row,replica,time_above,log_estimate,estimate,log_half_width,"
         "mean_time_above,hw_time_above,log_tail,log_base,i,s,count"),
        (["simulate", "escape", "--n", "20", "--from", "14", "--to", "18",
          "--floor", "10", "--replicas", "20", "--seed", "3"],
         "row,replica,escaped,mean,half_width,count"),
        (["components", "static", "--n", "50", "--eps", "0.5",
          "--replicas", "4", "--seed", "3"],
         "row,replica,largest,fraction,mean,half_width,count"),
        (["components", "emergence", "--n", "30", "--eps", "0.2",
          "--delta", "0.2", "--replicas", "3", "--seed", "3"],
         "row,replica,tau_component,component_censored,tau_edges,"
         "edges_censored,dominated,domination_fraction,count"),
    ]
    for argv, header in cases:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == header, argv


def test_meta_block_has_reproduction_fields(capsys):
    run_cli("simulate", "hitting", "--n", "6", "--from", "0", "--to", "3",
            "--replicas", "5", "--seed", "9")
    out = capsys.readouterr().out
    meta = dict(
        line[2:].split("=", 1) for line in out.splitlines() if line.startswith("# ")
    )
    for key in ("command", "version", "n", "alpha", "beta", "seed", "replicas", "cap"):
        assert key in meta
    assert meta["seed"] == "9"
    assert "workers" not in meta


def test_json_round_trips(capsys):
    run_cli("simulate", "hitting", "--n", "6", "--from", "0", "--to", "3",
            "--replicas", "6", "--seed", "11", "--format", "json")
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["meta"]["seed"] == 11
    samples = [r for r in doc["rows"] if r["row"] == "sample"]
    assert len(samples) == 6
    summary = [r for r in doc["rows"] if r["row"] == "summary"]
    assert len(summary) == 1 and summary[0]["count"] == 6


def test_output_file_and_seed_echo(tmp_path, capsys):
    target = tmp_path / "out.csv"
    run_cli("simulate", "stationarity", "--n", "10", "--replicas", "4",
            "--output", str(target))
    text = target.read_text()
    seed_lines = [l for l in text.splitlines() if l.startswith("# seed=")]
    assert len(seed_lines) == 1  # entropy-chosen seed is echoed
    capsys.readouterr()


def test_all_censored_exits_3(capsys):
    code = main(["simulate", "hitting", "--n", "30", "--from", "0", "--to", "400",
                 "--replicas", "3", "--seed", "5", "--cap", "0.001"])
    out = capsys.readouterr().out
    assert code == 3
    assert "true" in out  # censored flags present, samples not dropped


def test_emergence_past_double_range_is_censored():
    # the edge target 1163 lies e^877.7 away in mean time at n=500: the
    # passage draw is inf, censored at the cap, with no traceback or warning
    proc = run_proc("components", "emergence", "--n", "500", "--eps", "0.05",
                    "--delta", "0.94", "--replicas", "1", "--seed", "1", timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == b""
    assert proc.stdout.decode().splitlines()[-1].endswith(",true,,,")


@pytest.mark.parametrize("cap", ["inf", "1e400"])
def test_infinite_cap_reports_every_time(cap, capsys):
    # argparse reads 1e400 as inf; an infinite cap censors nothing
    run_cli("simulate", "hitting", "--n", "6", "--from", "0", "--to", "3",
            "--replicas", "5", "--seed", "9", "--cap", cap)
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")][1:]
    assert [r[3] for r in rows[:-1]] == ["false"] * 5
    assert all(math.isfinite(float(r[2])) for r in rows[:-1])
    assert math.isfinite(float(rows[-1][4]))


def test_rates_rows_and_svg(tmp_path, capsys):
    svg_path = tmp_path / "rates.svg"
    run_cli("analytic", "rates", "--eps-min", "0.01", "--eps-max", "0.79",
            "--step", "0.01", "--svg", str(svg_path))
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 79
    for row in rows:
        _, k, i1 = row.split(",")
        assert float(k) > float(i1)
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 2
    assert "<svg" in svg
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == (
        "918b355f14efc3285f04a1b52feca616268fc88b0a23e7983de46910a3a4e430")


def test_rates_grid_of_one_infinite_step_is_eps_min(capsys):
    # 0 * inf is nan: grid point 0 used to be nan, which exited 2
    rows = []
    for step in ("10", "inf"):
        run_cli("analytic", "rates", "--eps-min", "0.1", "--eps-max", "0.2", "--step", step)
        rows.append([l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")])
    assert rows[1] == rows[0]
    assert len(rows[0]) == 2 and rows[0][1].startswith("0.1,")


@pytest.mark.parametrize("eps_max,step,last,count", [
    ("0.5", "0.3", 0.31, 2),
    ("0.79", "0.05", 0.76, 16),
])
def test_rates_grid_stops_at_eps_max(eps_max, step, last, count, capsys):
    # a span that is not a whole number of steps used to round up past --eps-max
    run_cli("analytic", "rates", "--eps-min", "0.01", "--eps-max", eps_max, "--step", step)
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][1:]
    grid = [float(row.split(",")[0]) for row in rows]
    assert len(grid) == count
    assert grid[0] == 0.01 and grid[-1] == last


@pytest.mark.parametrize("config,argv,code,message", [
    pytest.param("# a comment\n\n  \nn=4\nt=0.5\n", ["analytic", "stationarity"], 0, "",
                 id="config-skips-blank-and-comment-lines"),
    pytest.param("n 4\n", ["analytic", "stationarity", "--t", "0.5"], 2,
                 "config line 1 is not key=value", id="config-line-without-equals"),
    pytest.param(None, ["components", "emergence", "--n", "2", "--eps", "0.4", "--delta", "0.5",
                        "--replicas", "1", "--seed", "1"], 2,
                 "edge target 3 exceeds the pair count 1", id="emergence-target-above-N"),
    pytest.param(None, ["analytic", "rates", "--eps-min", "0.3", "--eps-max", "0.3",
                        "--svg", "{tmp}/one.svg"], 0, "", id="rates-one-point-svg"),
])
def test_rarely_taken_paths(config, argv, code, message, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv += ["--config", str(path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in captured.err
    if config is not None and code == 0:
        assert "# n=4\n" in captured.out  # read past the skipped lines
    if "--svg" in argv:  # one visible mark per curve: a dot, not a one-point polyline
        svg = (tmp_path / "one.svg").read_text()
        assert svg.count("<circle") == 2 and "<polyline" not in svg


_HITTING = ["simulate", "hitting", "--n", "10", "--seed", "1"]
_EMERGENCE = ["components", "emergence", "--n", "20", "--delta", "0.1", "--seed", "1"]


@pytest.mark.parametrize("argv,message", [
    (_HITTING + ["--from", "0", "--to", "3", "--replicas", "0", "--cap", "-1"],
     "replicas must be positive"),
    (_HITTING + ["--from", "5", "--to", "3", "--replicas", "2", "--cap", "-1"],
     "need 0 <= start < target"),
    (_HITTING + ["--from", "0", "--to", "3", "--replicas", "2", "--cap", "-1"],
     "cap must be positive"),
    (_EMERGENCE + ["--eps", "1.5", "--replicas", "0", "--cap", "-1"],
     "replicas must be positive"),
    (_EMERGENCE + ["--eps", "1.5", "--replicas", "2", "--cap", "-1"], "eps must be in"),
    (_EMERGENCE + ["--eps", "0.3", "--replicas", "2", "--cap", "nan"], "cap must be positive"),
], ids=["hitting-replicas", "hitting-range", "hitting-cap", "emergence-replicas",
        "emergence-eps", "emergence-cap"])
def test_cap_is_checked_after_the_other_inputs(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["simulate", "hitting", "--from", "0", "--to", "3", "--cap", "-1"],
     "cap must be positive, got -1.0"),
    (["components", "static", "--m", "999"], "edge count must be in [0, 45], got 999"),
    (["simulate", "trajectory", "--start", "999", "--horizon", "1"],
     "start count must be in [0, 45], got 999"),
    (["components", "emergence", "--eps", "0.3", "--delta", "0.9"],
     "need delta > 0 with eps + delta < 1, got delta=0.9"),
], ids=["hitting-cap", "static-m", "trajectory-start", "emergence-delta"])
def test_bad_input_is_reported_before_any_process_starts(argv, message, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", refuse)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    assert main(argv + ["--n", "10", "--replicas", "4", "--workers", "2", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_config_file_round_trip_and_override(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("n=6\nalpha=1.0\nbeta=1.0\nseed=4\nreplicas=5\nfrom=0.0\nto=3.0\n")
    run_cli("simulate", "hitting", "--config", str(path))
    out1 = capsys.readouterr().out
    assert "# seed=4" in out1
    run_cli("simulate", "hitting", "--config", str(path), "--seed", "12")
    out2 = capsys.readouterr().out
    assert "# seed=12" in out2


def test_config_rejects_unknown_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus=1\n")
    assert main(["simulate", "hitting", "--config", str(path)]) == 2


@pytest.mark.parametrize("line", ["format=xml", "from-state=2", "n=six"])
def test_config_values_pass_the_flag_checks(line, tmp_path, capsys):
    # format=xml used to be accepted from a config file and silently write CSV
    path = tmp_path / "bad.cfg"
    path.write_text(f"{line}\n")
    argv = ["analytic", "transition", "--n", "4", "--t", "0.5", "--from-state", "0",
            "--to-state", "1", "--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad value for {line.split('=')[0]!r} on line 1: " \
                           f"{line.split('=')[1]!r}\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "hitting", "--n", "8", "--from", "0", "--to", "5", "--replicas", "60"],
    ["simulate", "trajectory", "--n", "8", "--horizon", "1", "--replicas", "5"],
    ["simulate", "stationarity", "--n", "8", "--replicas", "5"],
    ["simulate", "renewal", "--n", "12", "--c", "0.8", "--replicas", "100"],
    ["simulate", "escape", "--n", "12", "--from", "8", "--to", "10", "--floor", "6",
     "--replicas", "20"],
    ["components", "static", "--n", "30", "--m", "20", "--replicas", "5"],
    ["components", "emergence", "--n", "30", "--eps", "0.3", "--delta", "0.1",
     "--replicas", "4"],
], ids=lambda argv: " ".join(argv[:2]))
def test_worker_count_does_not_change_bytes(argv, capsys):
    out = []
    for workers in ("1", "2"):
        assert main(argv + ["--seed", "42", "--workers", workers]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]


def test_workers_env_default():
    argv = ["simulate", "hitting", "--n", "8", "--from", "0", "--to", "5",
            "--replicas", "40", "--seed", "43"]
    explicit = run_proc(*argv, "--workers", "2")
    via_env = run_proc(*argv, env_extra={"DYNER_WORKERS": "2"})
    assert explicit.stdout == via_env.stdout


def test_escape_outside_count_range_exits_2():
    # a floor below 0 and a target above N used to bypass validation and loop forever
    proc = run_proc("simulate", "escape", "--n", "5", "--from", "2", "--to", "50",
                    "--floor", "-1", "--replicas", "2", "--seed", "1", timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["analytic", "simulate"])
def test_non_finite_count_exits_2(command, value, capsys):
    argv = [command, "hitting", "--n", "3", "--from", value, "--to", "2"]
    if command == "simulate":
        argv += ["--replicas", "2", "--seed", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "--from" in err[0]


_NON_FINITE_DENSITIES = [
    (["simulate", "renewal", "--n", "40", "--c", "inf", "--replicas", "100", "--seed", "1"],
     "cannot round inf"),
    (["analytic", "entropy", "--n", "40", "--c", "inf"], "cannot round inf"),
    (["analytic", "entropy", "--n", "40", "--c", "1e308"], "cannot round inf"),
    (["analytic", "fluid", "--n", "40", "--from", "inf", "--to", "1"],
     "finite nonnegative density"),
    (["analytic", "rates", "--step", "nan"], "need step > 0"),
    (["analytic", "rates", "--eps-min", "nan"], "need step > 0"),
    (["analytic", "rates", "--eps-max", "inf"], "cannot round inf"),
    (["analytic", "rates", "--eps-max", "1e300"], "eps must be in (0, 1)"),
    (["analytic", "rates", "--step", "1e-300"], "need at most 10^6 eps grid points"),
]


@pytest.mark.parametrize("argv,message", _NON_FINITE_DENSITIES,
                         ids=[" ".join(argv) for argv, _ in _NON_FINITE_DENSITIES])
def test_non_finite_density_exits_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]


def test_infinite_trajectory_horizon_exits_2():
    # this used to run until killed, growing its path list without bound
    proc = run_proc("simulate", "trajectory", "--n", "6", "--horizon", "inf", "--seed", "1",
                    timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "horizon" in err[0]


@pytest.mark.parametrize("replicas", ["0", "-2"])
def test_trajectory_replicas_must_be_positive(replicas, capsys):
    argv = ["simulate", "trajectory", "--n", "6", "--horizon", "1", "--seed", "1",
            "--replicas", replicas]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: replicas must be positive, got {replicas}\n"


@pytest.mark.parametrize("command", [
    ["simulate", "hitting", "--n", "6", "--from", "0", "--to", "3"],
    ["simulate", "trajectory", "--n", "6", "--horizon", "1"],
    ["components", "static", "--n", "20", "--m", "10"],
])
def test_workers_must_be_positive(command, monkeypatch, capsys):
    argv = command + ["--replicas", "3", "--seed", "1"]
    assert main(argv + ["--workers", "0"]) == 2
    assert capsys.readouterr().err == "error: workers must be positive, got 0\n"
    monkeypatch.setenv("DYNER_WORKERS", "0")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: workers must be positive, got 0\n"


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv,meta,row", [
    (["simulate", "hitting", "--from", "0", "--to", "3", "--replicas", "2", "--seed", "1",
      "--cap", "inf"], {"cap": "inf"}, {}),
    (["analytic", "stationarity", "--t", "inf"], {"t": "inf"}, {"t": "inf", "cdf": 1.0}),
], ids=["hitting-cap", "stationarity-t"])
def test_json_writes_infinity_as_the_csv_does(argv, meta, row, capsys):
    assert main(argv + ["--n", "6", "--format", "json"]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert meta.items() <= doc["meta"].items()
    assert row.items() <= doc["rows"][0].items()
    assert main(argv + ["--n", "6"]) == 0
    csv = capsys.readouterr().out
    assert all(f"# {k}=inf\n" in csv for k in meta)


@pytest.mark.parametrize("command", [
    ["simulate", "hitting", "--n", "6", "--from", "0", "--to", "3"],
    ["simulate", "stationarity", "--n", "6"],
    ["simulate", "escape", "--n", "20", "--from", "14", "--to", "18", "--floor", "10"],
    ["components", "static", "--n", "20", "--m", "10"],
])
def test_single_replica_has_no_mean(command, capsys):
    assert main(command + ["--replicas", "1", "--seed", "1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["row"] for row in rows][:1] == ["sample"]
    assert not any({"mean", "half_width", "count"} & row.keys() for row in rows)


@pytest.mark.parametrize("argv", [
    ["components", "static", "--n", "50", "--m", "30", "--replicas", "4", "--seed", "3",
     "--alpha", "9"],
    ["components", "static", "--n", "50", "--m", "30", "--replicas", "4", "--seed", "3",
     "--beta", "2"],
    ["analytic", "rates", "--n", "5"],
    ["analytic", "rates", "--alpha", "2"],
    ["analytic", "rates", "--beta", "2"],
])
def test_flags_that_shape_no_output_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_emergence_at_n_500_runs_in_seconds():
    argv = ["components", "emergence", "--n", "500", "--eps", "0.3", "--delta", "0.1",
            "--replicas", "20", "--seed", "9"]
    done = run_proc(*argv, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = [line for line in done.stdout.decode().splitlines() if line.startswith("sample,")]
    assert len(rows) == 20


def test_importing_dyner_loads_only_declared_dependencies():
    # the installed distributions whose packages get loaded by importing
    # every dyner module are exactly the runtime dependencies that
    # pyproject.toml declares; an undeclared one (scipy, say) would also
    # cost import time and resident memory
    if sys.version_info >= (3, 11):
        import tomllib
    else:  # pytest itself depends on tomli before Python 3.11
        import tomli as tomllib
    project = tomllib.loads((pathlib.Path(SRC).parent / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"]}
    assert declared == {"numpy"}
    code = (
        "import importlib, pkgutil, sys\n"
        "from importlib.metadata import packages_distributions\n"
        "bare = set(sys.modules)\n"
        "import dyner\n"
        "for m in pkgutil.iter_modules(dyner.__path__):\n"
        "    if m.name != '__main__':\n"
        "        importlib.import_module('dyner.' + m.name)\n"
        "loaded = {k.split('.')[0] for k in set(sys.modules) - bare} - {'dyner'}\n"
        "dists = packages_distributions()\n"
        "print(' '.join({d for k in loaded for d in dists.get(k, ())}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = {name.lower().replace("-", "_") for name in done.stdout.decode().split()}
    assert loaded == declared


def test_seed_outside_64_bits_exits_2(capsys):
    argv = ["simulate", "hitting", "--n", "6", "--from", "0", "--to", "3",
            "--replicas", "2", "--seed"]
    for seed in ("-5", str(2**64)):
        assert main(argv + [seed]) == 2
        assert "seed" in capsys.readouterr().err
    # -5 used to alias 2^64 - 5, which stays valid
    assert main(argv + [str(2**64 - 5)]) == 0


def test_static_single_vertex_exits_2(capsys):
    argv = ["components", "static", "--n", "1", "--m", "0", "--replicas", "2", "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


# Values under which every command runs, with the exceptions below.
_VALID = {"n": "12", "seed": "1", "t": "1.0", "from-state": "0", "to-state": "1",
          "from": "2", "to": "4", "c": "0.8", "i": "60", "horizon": "1.0",
          "replicas": "2", "floor": "1", "eps": "0.3", "delta": "0.1"}
_VALID_FOR = {"fluid": {"from": "0", "to": "0.3"}, "renewal": {"replicas": "100"}}
_NAN_CASES = [(spec, name) for spec in _COMMANDS for name in spec.flags.split()
              if _FLAGS[name].type is float]


@pytest.mark.parametrize("spec,flag", _NAN_CASES,
                         ids=[f"{s.group}-{s.name}-{f}" for s, f in _NAN_CASES])
def test_nan_float_flag_is_validation_error(spec, flag, capsys):
    values = dict(_VALID, **_VALID_FOR.get(spec.name, {}))
    argv = [spec.group, spec.name]
    for name in spec.flags.split():
        if name in values:
            argv += [f"--{name}", values[name]]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + [f"--{flag}", "nan"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


# sha256 of stdout for the README commands, at smaller replica counts.  They
# pin every random stream the commands read and the output format; update
# them only together with a recorded, deliberate stream change.
README_DIGESTS = [
    (["simulate", "trajectory", "--n", "100", "--horizon", "2.0", "--seed", "1"],
     "339dd9c7fee832812028fd90114eb21e5db2f9b1e052c227aa5f29658eae446b"),
    (["simulate", "hitting", "--n", "20", "--from", "0", "--to", "6",
      "--replicas", "1000", "--seed", "42"],
     "38679c96338286cd8bcb938f094d809a70bc1d07186a0f242c9f4b900e691fff"),
    (["simulate", "renewal", "--n", "40", "--c", "0.8", "--replicas", "1000",
      "--seed", "7"],
     "0b9240f25bacda73b754eb42fb1fead09da295c8b6d1d3f40d4437e4e8aaa269"),
    (["simulate", "escape", "--n", "40", "--from", "28", "--to", "36",
      "--floor", "20", "--replicas", "1000", "--seed", "5"],
     "1e9b4ad64c7d8e6156ccd30b4bb0059f2354bb4bc5affd408db1e2fdae1dcc35"),
    (["components", "static", "--n", "2000", "--eps", "0.5", "--replicas", "10",
      "--seed", "3"],
     "8d616989783b6dea3219f99493b526fbe68b871c2d3a6dce906b63fcf2e64ad6"),
    (["components", "emergence", "--n", "100", "--eps", "0.3", "--delta", "0.1",
      "--replicas", "20", "--seed", "9"],
     "2e837ceba7621b98eb32369e8220b81b55270953fa2d0ff553822e11cf7255f0"),
    (["analytic", "hitting", "--n", "3", "--alpha", "1", "--beta", "1", "--from", "0",
      "--to", "2"],
     "0846c05ec48e1324b3f3906de33de0281063937f18557d1de8aa2f08e5506e53"),
    (["analytic", "stationarity", "--n", "200", "--t", "10.6"],
     "39a661cd617ae7a9768c1cfffadb2f278f1de15f8bd6ad438c36e6d9bc90cff3"),
    (["analytic", "fluid", "--n", "100", "--from", "0", "--to", "0.3"],
     "b0ce47fd1386cf54e0d70262ca7e9689a0b6d54e6fb1aeb49e3f5c04ab3df0b7"),
    (["analytic", "entropy", "--n", "40", "--c", "0.8"],
     "07c1199d5c82f02a732da6530b932fa72c3b48d2bea61c8e9e084b5dec864dc1"),
    (["analytic", "tail", "--n", "40", "--i", "32"],
     "94d91a788ba8692f7597b8a3d05e57645be64783c7feb15c213d84942b68e717"),
    (["analytic", "rates", "--eps-min", "0.01", "--eps-max", "0.79", "--step", "0.01"],
     "bfa7a5b81114d7716894ef334d029a10b445f1f5b8817d47256d6cd2ed9cd974"),
    (["simulate", "stationarity", "--n", "200", "--replicas", "1000", "--seed", "1"],
     "97750557cabf317d434e7bcca987110910c6dc51bf3932b6c9ceef497bf7245c"),
    (["simulate", "escape", "--n", "40", "--from", "28", "--to", "36",
      "--floor", "20", "--replicas", "1000", "--seed", "5", "--format", "json"],
     "b3e44d2143d32941c2e2de14a0b28885eff9477792301c5879c95252e51daaf2"),
]


def _digest_id(argv):
    return " ".join(argv[:2] + (["json"] if "json" in argv else []))


@pytest.mark.parametrize("argv,digest", README_DIGESTS,
                         ids=[_digest_id(argv) for argv, _ in README_DIGESTS])
def test_readme_command_stdout_digest(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_without_a_c_compiler_the_python_walk_gives_the_same_bytes(tmp_path):
    # a fresh copy of the package holds no built kernel; with no C compiler
    # on PATH, or libraries that fail to load, the count chain's walk and
    # clock and the component passage fall back to Python, silently; the
    # trajectory and renewal commands read the event times and the level
    shutil.copytree(pathlib.Path(SRC) / "dyner", tmp_path / "dyner",
                    ignore=shutil.ignore_patterns("__pycache__"))
    built = tmp_path / "dyner" / "__pycache__"
    commands = [["simulate", "trajectory", "--n", "100", "--horizon", "2.0", "--seed", "1"],
                ["simulate", "hitting", "--n", "20", "--from", "0", "--to", "6",
                 "--replicas", "10000", "--seed", "42"],
                ["simulate", "renewal", "--n", "40", "--c", "0.8", "--replicas", "1000",
                 "--seed", "7"],
                ["components", "emergence", "--n", "100", "--eps", "0.3", "--delta", "0.1",
                 "--replicas", "20", "--seed", "9"],
                ["components", "static", "--n", "2000", "--eps", "0.5", "--replicas", "10",
                 "--seed", "3"]]
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONWARNINGS="error::RuntimeWarning")
    empty = tmp_path / "bin"
    empty.mkdir()

    def run(env):
        runs = [subprocess.run([sys.executable, "-m", "dyner", *argv], capture_output=True,
                               env=env) for argv in commands]
        assert [(r.returncode, r.stderr) for r in runs] == [(0, b"")] * len(commands)
        return [r.stdout for r in runs]

    python = run(dict(env, PATH=str(empty)))
    assert list(built.glob("_kernel-*")) == []
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH to build the compiled kernels")
    assert run(env) == python
    libraries = list(built.glob("_kernel-*"))  # the built libraries, no temporary left
    # named by their last exported functions, which the shared PCG64 leaves
    assert sorted(library.name.split("-")[1] for library in libraries) == ["passage", "runs"]
    for library in libraries:
        library.write_bytes(b"not a shared library")
    assert run(env) == python


def test_readme_commands_parse():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [line.split()[1:] for line in block.splitlines()
                if line.startswith("dyner ")]
    assert len(commands) == 13
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert (args.command, args.subcommand) == tuple(argv[:2])
