"""Self-test of the end-to-end benchmark, at shrunk sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Each case runs ``perfbench/run.py`` as its own process, exactly as the
benchmark is invoked, with ``--scale`` shrinking the load.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"),
                      encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SCALE = "0.04"


def _run(workload, trace, seed=3, cwd=ROOT, script=None):
    command = [sys.executable,
               script or os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "0.1", "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(completed):
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    """Two untraced and two traced runs of every workload, same seed."""
    return {(workload, trace, copy): _result(_run(workload, trace))
            for workload in WORKLOADS for trace in (0, 1)
            for copy in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(runs, workload, trace,
                                               section):
    lines, result = runs[(workload, trace, 0)]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ")
                   and line.endswith(f" {unit}") for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reproduces_the_untraced_signature(runs, workload):
    lines, result = runs[(workload, 1, 0)]
    assert result["correct"] is True
    signature = next(line for line in lines
                     if line.startswith("simulated signature:"))
    untraced, traced = signature.split()[3], signature.split()[5]
    assert untraced == traced
    assert any(line.startswith("tracing overhead:") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_runs_agree_exactly(runs, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        units = {metric["name"]: metric["unit"] for metric in SPEC[section]}
        first = runs[(workload, trace, 0)][1]["metrics"]
        second = runs[(workload, trace, 1)][1]["metrics"]
        # Everything but host time and memory is a function of the seed.
        exact = [name for name, unit in units.items()
                 if name.startswith("sim_")
                 or (unit in ("count", "bytes", "sim_s", "ratio")
                     and name != "trace.overhead")]
        assert exact
        for name in exact:
            assert first[name]["value"] == second[name]["value"], name


def test_unknown_workload_is_refused():
    completed = _run("no_such_workload", 0)
    assert completed.returncode == 2
    assert not completed.stdout.strip()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = _run(WORKLOADS[0], 0, cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert completed.returncode not in (0, None)
    assert "correct" not in completed.stdout
