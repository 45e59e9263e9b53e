"""Harness smoke test at tiny sizes: python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a wrong oracle value is counted as a failed job, and that the
benchmark refuses to run without the dyner sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(line) -> dict:
    return {name: metric["unit"] for name, metric in line["metrics"].items()}


def _spec_units(section) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_declared_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert set(wl.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_emits_end_to_end_metrics(workload):
    meta, line = run.measure(workload, 7, 0, False, wl.TINY)
    assert line["correct"], meta["failures"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert _units(line) == _spec_units("end_to_end")
    assert all(line["metrics"][name]["value"] > 0 for name in line["metrics"])
    for key in ("nproc", "python", "numpy", "scipy", "commit", "seed", "workers"):
        assert key in meta


def test_traced_run_emits_every_per_layer_metric():
    meta, line = run.measure("count_chain", 7, 0, True, wl.TINY)
    assert line["correct"], meta["failures"]
    assert _units(line) == _spec_units("per_layer")
    trace = json.loads((run.ROOT / meta["trace_file"]).read_text())
    assert trace["spans"] and set(trace["fields"]) >= {"name", "start", "end", "parent", "workload"}


def test_wrong_oracle_value_counts_as_failed(monkeypatch):
    exact = wl.an.expected_hitting
    off = wl.an.LogNonNegative.from_linear(3.0)
    monkeypatch.setattr(wl.an, "expected_hitting", lambda j, i, d: exact(j, i, d) * off)
    meta, line = run.measure("count_chain", 7, 0, False, wl.TINY)
    assert not line["correct"]
    assert line["failed"] >= 2  # both first-passage jobs
    assert any("hitting_super" in f for f in meta["failures"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "count_chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
