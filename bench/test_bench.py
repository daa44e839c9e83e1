"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

Takes about two minutes: every test starts real benchmark runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from cohaut import corpus  # noqa: E402


def bench(workload: str, *extra: str, seconds: float = 1, trace: int = 0, cwd: str = ROOT):
    """Run the benchmark; returns (exit code, last stdout line as JSON or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def corrupt(golden: dict, workload: str) -> None:
    if workload == "wes":
        golden["wes"]["E3"]["nodes_sha256"] = "0" * 64
    elif workload == "lift_grid":
        golden["lift_grid"]["V-ex31"]["lifting"] += 1
    elif workload == "reproduce":
        golden["reproduce"]["sha256"] = "0" * 64
    else:
        for rows in golden["query_mix"]["dimensions"].values():
            for row in rows.values():
                row[:] = [None if d is None else d + 1 for d in row]


@pytest.mark.parametrize("workload", ["wes", "lift_grid", "reproduce", "query_mix"])
def test_corrupted_golden_fails_the_run(workload, tmp_path):
    with open(os.path.join(BENCH, "golden.json")) as fh:
        golden = json.load(fh)
    corrupt(golden, workload)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    code, result = bench(workload, "--golden", str(path))
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_checked_in_golden_passes():
    code, result = bench("lift_grid")
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0


def test_traced_counts_are_exact():
    _, lift = bench("lift_grid", trace=1)
    points = 7**2 + 7**3 + workloads.LiftGrid.DRAW
    assert values(lift)["coherence.lifts"] == points
    _, wes = bench("wes", trace=1)
    models = [corpus.load_builtin(label) for label in workloads.Wes.MODELS]
    node_range = sum(max(m.top_degree + 1, 3) - 3 + 1 for m in models)
    assert values(wes)["whitehead.nodes"] == node_range
    with open(os.path.join(BENCH, "golden.json")) as fh:
        golden_checks = json.load(fh)["wes"]
    assert values(wes)["whitehead.checks"] == sum(g["checks"] for g in golden_checks.values())


@pytest.mark.parametrize("workload", ["lift_grid", "query_mix"])
def test_traced_counts_repeat(workload):
    first, second = (values(bench(workload, trace=1)[1]) for _ in range(2))
    counts = [n for n in first if not n.endswith("_s") and n != "trace.overhead_ratio"]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_untraced_child_installs_no_wrapper():
    def child(trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), "--workload", "lift_grid",
             "--seed", "1", "--index", "0", "--t0", "0",
             "--golden", os.path.join(BENCH, "golden.json"), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    assert child(0)["wrapped"] == 0
    assert child(1)["wrapped"] > 0


def test_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    _, plain = bench("lift_grid")
    _, traced = bench("lift_grid", trace=1)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, result = bench("wes", cwd=str(tmp_path))
    assert code != 0
    assert result is None
