import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from dyner.cli import RunConfig, main

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv, check_exit=0, capsys=None):
    code = main(list(argv))
    assert code == check_exit, f"exit {code} != {check_exit} for {argv}"


def run_proc(*argv, env_extra=None, timeout=None):
    env = dict(os.environ)
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


def test_config_file_round_trip_and_override(tmp_path, capsys):
    cfg = RunConfig(n=6, alpha=1.0, beta=1.0, seed=4, replicas=5,
                    from_count=0.0, to_count=3.0)
    assert RunConfig.from_text(cfg.to_text()) == cfg
    path = tmp_path / "run.cfg"
    path.write_text(cfg.to_text())
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


def test_worker_count_does_not_change_bytes():
    argv = ["simulate", "hitting", "--n", "8", "--from", "0", "--to", "5",
            "--replicas", "60", "--seed", "42"]
    one = run_proc(*argv, "--workers", "1")
    two = run_proc(*argv, "--workers", "2")
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


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


def test_seed_outside_64_bits_exits_2(capsys):
    argv = ["simulate", "hitting", "--n", "6", "--from", "0", "--to", "3",
            "--replicas", "2", "--seed"]
    for seed in ("-5", str(2**64)):
        assert main(argv + [seed]) == 2
        assert "seed" in capsys.readouterr().err
    # -5 used to alias 2^64 - 5, which stays valid
    assert main(argv + [str(2**64 - 5)]) == 0


# sha256 of stdout for the README commands, at smaller replica counts.  They
# pin every random stream the commands read and the output format; update
# them only together with a recorded, deliberate stream change.
README_DIGESTS = [
    (["simulate", "trajectory", "--n", "100", "--horizon", "2.0", "--seed", "1"],
     "84cbf3493f029711e2f39f7a030a8d96460b0581af7c521a86b7897d8b656aa3"),
    (["simulate", "hitting", "--n", "20", "--from", "0", "--to", "6",
      "--replicas", "1000", "--seed", "42"],
     "ce9c7bdb81b2ddaaec7ce5b7859db7c92c85635670dfa1bb32cb531401050ed7"),
    (["simulate", "renewal", "--n", "40", "--c", "0.8", "--replicas", "1000",
      "--seed", "7"],
     "8cfe92fdf3d4b1b714d97bd6772e05f781787b402514eb3bb6b7ba776d3a94cb"),
    (["simulate", "escape", "--n", "40", "--from", "28", "--to", "36",
      "--floor", "20", "--replicas", "1000", "--seed", "5"],
     "df2fe6a8d21d78bc75488d081dad1c6b9484fc313847355fe13b17b03e37a674"),
    (["components", "static", "--n", "2000", "--eps", "0.5", "--replicas", "10",
      "--seed", "3"],
     "d42e5f6e9112224414994f7e82f9dd0bf6f72af0fa43867bf9a1928b56130856"),
    (["components", "emergence", "--n", "100", "--eps", "0.3", "--delta", "0.1",
      "--replicas", "20", "--seed", "9"],
     "ec2e1bf559b12a505c65ab5232f529176bdee7f225a57654d8fdf2d864feb052"),
]


@pytest.mark.parametrize("argv,digest", README_DIGESTS,
                         ids=[" ".join(argv[:2]) for argv, _ in README_DIGESTS])
def test_readme_command_stdout_digest(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
