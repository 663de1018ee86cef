"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _units(entries) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in entries}


def test_spec_matches_the_code():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert _units(SPEC["end_to_end"]) == run.END_TO_END
    assert _units(SPEC["per_layer"]) == run.PER_LAYER
    command = SPEC["command"]
    assert int(command[command.index("--seed") + 1]) == run.DEFAULT_SEED


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = run.run_benchmark(workload, seed=1, seconds=0.3, trace=False, size="tiny")
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    lines = run.report_lines(out)
    for name, unit in {**run.END_TO_END, **run.CHECKS}.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name
    assert any(line.startswith("op_tail_ms = ") for line in lines)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_layers_add_up_to_the_operation(workload):
    out = run.run_benchmark(workload, seed=1, seconds=0.3, trace=True, size="tiny")
    result = out["result"]
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(metrics[name] for name in spans.SELF_TIME_METRICS)
    plain, traced = out["timing"]["plain_op_s"], out["timing"]["traced_op_s"]
    assert layers <= traced  # no time is counted twice
    # The rest of the traced time is tracing cost; 0.05 allows for the noise
    # between the plain and the traced pass at these tiny sizes.
    assert abs(layers / plain - 1.0) <= abs(metrics["trace.overhead_frac"]) + 0.05


def test_same_seed_same_inputs():
    el = run.load_package()
    a, b, c = (workloads.build("match_dense", el, seed, "tiny") for seed in (5, 5, 6))
    assert all(np.array_equal(x, y) for x, y in zip(a.scenes[0].table.times, b.scenes[0].table.times))
    assert not np.array_equal(a.scenes[0].truth, c.scenes[0].truth)


def test_skipped_ghost_tuples_count_as_ghosts_and_genuine_ones_fail():
    arrivals = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    ghost = workloads.Outcome()
    workloads._count_skipped(ghost, [((1.0, 5.0, 3.0), "InconsistentTimes")], arrivals, 1e-9)
    assert (ghost.failed, ghost.ghosts) == (False, 1)
    genuine = workloads.Outcome()
    workloads._count_skipped(genuine, [((4.0, 5.0, 6.0), "InconsistentTimes")], arrivals, 1e-9)
    assert (genuine.failed, genuine.ghosts) == (True, 0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_batch", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
