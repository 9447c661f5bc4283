"""Smoke runs of every workload plus checks of the benchmark's output schema.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_matches_the_benchmark():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in metrics.values())
    elif workload == "repair_blobs":
        # relukit.repair is the re-exported function; these spans exist only
        # if the wrappers reached the module of that name.
        assert callable(__import__("relukit").repair)
        for name in ("repair.verify_s", "repair.train_s",
                     "datasets.add_train_sample_calls"):
            assert metrics[name]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("verify_scaled", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_train_check_floors_each_stage_best_training_accuracy():
    workload = workloads.make("train_blobs784", "full")
    # finals: stage -> (network, last test accuracy, best training-set
    # accuracy, steps); a low last test accuracy alone is no failure.
    rnd = workloads.Round([], {}, {"finals": {
        "Baseline": (None, 0.1, 0.9, 1), "WP": (None, 0.9, 0.2, 1)}})
    failed, errors = workload.check({}, rnd)
    assert failed == []
    assert len(errors) == 1 and errors[0].startswith("WP:")
