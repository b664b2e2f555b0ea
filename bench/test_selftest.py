"""Self-test of the benchmark at tiny sizes.

    python -m pytest bench/test_selftest.py

Runs every workload measured and traced at tiny sizes and checks the
result lines against BENCHMARK.json; checks that two traced runs give
identical counts, and that the benchmark refuses to run without the
program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
# every workload run.py offers, including any BENCHMARK.json leaves out
WORKLOADS = ("report-default", "verdict-sweep", "moments-fresh")


def run_bench(workload, trace, seed=3, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_measured_run_prints_every_end_to_end_metric(workload):
    context, result = result_of(run_bench(workload, 0))
    check_result(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert context["machine"]["nproc"] >= 1 and context["seed"] == 3
    assert context["VCSLAB_THREADS"] is None
    # each operation counts once, however many passes fit in the run
    assert result["attempted"] == context["ops_per_pass"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    (_, first), (_, second) = (result_of(run_bench(workload, 1)) for _ in range(2))
    check_result(first, BENCH["per_layer"])
    counts = {m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"}
    assert counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
