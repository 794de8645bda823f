"""The benchmark's own test: every workload at a tiny size, with all its checks.

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def perturbed(result):
    if isinstance(result, tuple):  # hyperbola: (term_d, term_k, boundary, total)
        return result[:3] + (result[3] + 1,)
    if isinstance(result, int):
        return result + 1
    return result * (1 + 1e-6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_reject_a_wrong_result(workload):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        from workloads import WORKLOADS as classes

        wl = classes[workload](seed=3, smoke=True)
        wl.setup()
        for i, (_, op) in enumerate(wl.ops):
            result = op()
            assert wl.check(i, result)
            assert not wl.check(i, perturbed(result))
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
