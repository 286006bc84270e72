"""Smoke test of the benchmark: one pass at reduced sizes per workload, untraced
and traced.  It checks that every metric is printed with its unit and that
every answer check of the workload ran.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
OP_METRICS = {
    "assign-large": ["factor_s", "longest_gpath_s", "bound_s", "strong_s", "ext_s"],
    "chain-strong": ["strong_s"],
    "exact-dp": ["oracle_s", "atleast_s", "xy_gpath_s"],
    "desk-cli": ["tsp_s", "npc_s"],
}

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    assert "checks_missing none" in lines
    assert any(line.startswith("failures ok=") for line in lines)
    return lines, res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_metrics_and_checks(workload):
    lines, res = result(run(workload, 0))
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert printed == {m["name"] for m in BENCH["end_to_end"]} | {"failed_frac"} | set(
        OP_METRICS[workload])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layer_metrics(workload):
    lines, res = result(run(workload, 1))
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert declared == dict(tracer.PER_LAYER)
    assert {name: m["unit"] for name, m in res["metrics"].items()} == declared
    printed = {line.split()[1] for line in lines if line.startswith("layer ")}
    assert printed == set(declared)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert "correct" not in out.stdout
