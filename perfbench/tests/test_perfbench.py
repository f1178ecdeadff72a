"""Tests of the benchmark itself, run on shrunken (``--tiny``) corpora."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run_bench(workload, seed=3, trace=0, cwd=ROOT, check=True):
    """Run the benchmark CLI on a tiny corpus; return (process, result)."""
    done = subprocess.run(
        [
            sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    if not check:
        return done, None
    assert done.returncode == 0, done.stderr
    return done, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    done, result = run_bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert result["metrics"]["ok_rate"]["value"] == 1.0
    host = json.loads(done.stdout.strip().splitlines()[-2][len("host "):])
    assert {"steal_ticks", "load_1min_start", "threads"} <= set(host)


def test_counts_repeat_for_a_seed_and_change_with_it():
    def counts(seed):
        metrics = run_bench("perm_compile", seed=seed)[1]["metrics"]
        return metrics["gates_out"]["value"], metrics["t_count_out"]["value"]

    assert counts(11) == counts(11)
    assert counts(11) != counts(12)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_within_run_time(workload):
    _done, result = run_bench(workload, trace=1)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    run_s = metrics["trace.run_s"]["value"]
    assert run_s > 0
    for name, entry in metrics.items():
        if entry["unit"] == "s" and name != "trace.run_s":
            assert 0 <= entry["value"] <= run_s, name
    trace_path = os.path.join(
        ROOT, ".perfbench", f"{workload}-seed3-trace1.trace.json"
    )
    with open(trace_path) as handle:
        events = json.load(handle)["traceEvents"]
    assert events and all(
        {"name", "ts", "dur", "ph"} <= set(e) and "parent" in e["args"]
        for e in events
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done, _ = run_bench("perm_compile", cwd=str(tmp_path), check=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
