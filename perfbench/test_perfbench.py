"""Tests of the benchmark itself, on smoke-size models.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that only some workloads exercise; they go to the results file.
ONLY_ON = {
    "merge-ties-bf16": ["merge_methods.combine_s", "merge_methods.peak_alloc_mb"],
    "merge-dare-linear-f32": [],
    "pipeline-lewis": [
        "merge_methods.combine_s", "runtime.capture_s", "runtime.eval_s",
        "runtime.forward_calls", "runtime.tokens", "runtime.us_per_token",
        "importance.plan_s", "importance.plans",
        "cli.capture_s", "cli.plan_s", "cli.merge_s", "cli.eval_s",
    ],
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_named_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = line["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
        if trace == 0:
            assert entry["value"] > 0, m["name"]

    results = ROOT / "perfbench" / "out" / "results" / f"smoke-{workload}-seed7-trace{trace}.json"
    doc = json.loads(results.read_text())
    assert doc["output_sha256"] and doc["metrics"]["ops_failed"]["value"] == 0.0
    assert doc["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert doc["environment"]["reference_kernel_ms"] > 0
    for name, entry in doc["metrics"].items():
        assert entry["unit"] and entry["samples"] >= 1, name
    if workload == "pipeline-lewis":
        assert doc["metrics"]["capture_ktok_per_s"]["value"] > 0
        assert doc["metrics"]["eval_ktok_per_s"]["value"] > 0
    if trace:
        assert doc["traced_output_identical"] is True
        for name in ONLY_ON[workload]:
            assert name in doc["metrics"], name


def test_same_seed_gives_same_output():
    digests = set()
    for _ in range(2):
        assert _run("merge-dare-linear-f32", 0).returncode == 0
        doc = json.loads((ROOT / "perfbench/out/results/smoke-merge-dare-linear-f32-seed7-trace0.json").read_text())
        digests.add((doc["output_sha256"], json.dumps(doc["input_sha256"], sort_keys=True)))
    assert len(digests) == 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
