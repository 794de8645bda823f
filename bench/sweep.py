"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 bench/sweep.py --seeds 1-10 [--workloads a,b] [--seconds 20] [--label NAME]

Runs ``run.py`` once per (workload, seed), one process at a time, workload by
workload.  For every metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  It also summarizes the machine-speed
reference of the runs.  The raw results go to ``.bench_out/sweep-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--label", default=time.strftime("%Y%m%d-%H%M%S"))
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [
                sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            t0 = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            side, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed, "wall_s": wall, **side, **result})
            print(
                f"{workload:15s} seed {seed:3d} wall {wall:5.1f}s "
                + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f" failed={result['failed']}/{result['attempted']} correct={result['correct']}",
                flush=True,
            )
    out = ROOT / ".bench_out" / f"sweep-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))

    print(f"\n{'workload':15s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for workload in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == workload]
        for name in bounds:
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in mine])
            print(
                f"{workload:15s} {name:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                f"{(q3 - q1) / med:7.2%} {bounds[name]:6.0%}"
            )
        shares = {r["failed"] / r["attempted"] for r in mine}
        print(f"{workload:15s} failed share per run: {sorted(shares)}")
    for key in ("numpy_ms", "python_ms"):
        vals = [r[s][key] for r in runs for s in ("reference_start", "reference_end")]
        q1, med, q3 = quartiles(vals)
        print(f"machine reference {key}: median {med:.2f} (q1 {q1:.2f}, q3 {q3:.2f}) over {len(vals)} samples")
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
