"""Every workload at toy size: metrics present with units, gate passing."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as wl  # noqa: E402


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_emits_every_metric_and_passes_the_gate(tmp_path, name, trace):
    w = wl.WORKLOADS[name]
    res = wl.run_workload(w, wl.TINY, seed=3, seconds=1, trace=trace,
                          work_dir=str(tmp_path))
    failed = [(c, d) for c, ok, d in res.checks if not ok]
    assert not failed
    expected = wl.PER_LAYER if trace else wl.END_TO_END
    assert list(res.metrics) == [n for n, _ in expected]
    assert all(math.isfinite(v) for v in res.metrics.values())
    if trace:
        return
    assert all(v > 0 for v in res.metrics.values())
    named = {"step_ms_tail", "tail_percentile", "warm_units"}
    named |= {"probe_s", "probe_val_accuracy"} if w.kind == "probe" else {"loss_final"}
    assert named <= set(res.extra)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(wl.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(wl.PER_LAYER)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
