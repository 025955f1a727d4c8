"""The CI workflows cover what the repository declares."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_runs_every_benchmark_workload():
    # bench-smoke.yml is the one CI gate on the benchmark's output checks, so
    # a workload that BENCHMARK.json adds must join its matrix
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    workflow = (ROOT / ".github" / "workflows" / "bench-smoke.yml").read_text()
    (matrix,) = re.findall(r"^\s*workload: \[(.*)\]$", workflow, re.MULTILINE)
    assert sorted(name.strip() for name in matrix.split(",")) == sorted(declared)
