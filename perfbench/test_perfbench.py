"""Smoke tests of the benchmark itself (16x32 grids, one cycle per run).

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# index -1 files per smoke run: one weak and one strong in each of two rounds
EXPECTED_FAILURES = {"acceptance_flow": 0, "curved_history": 0, "bvp_files": 4}


def smoke(workload, trace, seed=3, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == EXPECTED_FAILURES[workload]

    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    text = "\n".join(lines[:-1])
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"# {m['name']}" in text and f" {m['unit']}" in text
    if not trace:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
        assert "failed_share" in text and "# first_step_s" in text
        alias = {"curved_history": "history_step_s", "bvp_files": "bvp_op_s"}.get(workload)
        if alias:
            assert alias in text
    else:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["failures.UnsolvableDataError"] == EXPECTED_FAILURES[workload]
        assert abs(values["trace.self_time_share"] - 1.0) < 1e-9
    assert "pinned threads 1" in text


def test_flat_flow_leaves_transport_and_metrics_idle():
    proc = smoke("acceptance_flow", 1)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    values = {k: v["value"] for k, v in metrics.items()}
    assert values["transport.rk4_stages"] == 0
    assert values["flow.assembler_calls_per_step"] >= values["vekua.bvp_calls"]


def test_seed_sets_the_inputs():
    def drift(seed):
        proc = smoke("curved_history", 1, seed=seed)
        return json.loads(proc.stdout.splitlines()[-1])["metrics"]["transport.norm_drift_max"]

    assert drift(5) == drift(5)
    assert drift(5) != drift(6)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("acceptance_flow", 0, cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
