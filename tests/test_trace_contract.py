"""What the benchmark's tracer reads from ``arith`` still yields its counters.

``bench/tracer.py`` tags each ``sieve_range`` call with the first letter of
``arith._choose_engine(spec, lo, hi)`` and counts prefix builds through
``arith._table_cache[key]["N"]``.  A change to those internals that zeroed a
counter would still pass the smoke tests, which check only metric names and
units, so the counters of each traced smoke run are pinned here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

COUNTERS = {
    "sieve_rows": {"arith.sieve.entries": 8192},
    "far_rows": {"arith.far.points": 80},
    "delta_windows": {"hooley.delta_sum.n": 300},
    "hyperbola_cold": {"hyperbola.short.calls": 18},
}


@pytest.mark.parametrize("workload", sorted(COUNTERS))
def test_traced_smoke_counters(workload):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--trace", "1", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for name, want in COUNTERS[workload].items():
        assert metrics[name]["value"] == want, name
    if workload == "hyperbola_cold":
        assert metrics["arith.prefix.builds"]["value"] > 0
