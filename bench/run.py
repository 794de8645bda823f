"""Run one hyplab benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a hyplab source tree; the program is imported from
``src/`` next to this directory, never from an installed copy.  One process,
one thread: after set-up, whole rounds of the workload's fixed ops run back
to back (a closed loop) until ``--seconds`` of rounds have run.  The outputs
are then checked against values computed apart from hyplab.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Untraced (``--trace 0``) the
metrics are the end-to-end ones:

- ``setup_s``: interpreter start to the first timed op (imports, registry
  entries with their Euler products, prime warm-up, seeded inputs), timed in
  fresh interpreters started one at a time between rounds;
- ``run_s``: the wall time of one round of the fixed work;
- ``peak_rss_mb``: the process's peak resident set when the timed work ends.

Both times are the upper decile of their samples, not the median.  The host
this was built on alternates, over seconds to minutes, between a boosted
speed and a slower sustained one (about 1.5x apart).  The median follows
the share of boosted time in a run and spread 22-26% across runs.  The upper
decile reads the sustained speed and mostly spread 5-11%.  A run that falls
wholly inside one phase still reads that phase (see README.md).

Traced (``--trace 1``) the first half of the time runs untraced and the second
half traced; the metrics are the per-layer ones of :mod:`tracer` plus the
tracing overhead, and the spans go to ``.bench_out/``.  ``--smoke`` runs one
round at a tiny size with every check, as a quick test of the benchmark.

Before the result, one JSON line records the machine and a machine-speed
reference: fixed numpy and pure-Python kernels timed at the start and at the
end of the timed phase, to tell host drift from a change in the program.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyplab" / "__init__.py"
OUT_DIR = ROOT / ".bench_out"

#: Fresh interpreters whose set-up times give ``setup_s``.
SETUP_SAMPLES = 9
#: Rounds a timed phase runs at least, even past ``--seconds``.
MIN_ROUNDS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one tiny round, all checks")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import hyplab from this tree's src/, or stop with exit code 2."""
    if not PACKAGE.is_file():
        sys.stderr.write(f"bench: no hyplab source tree at {PACKAGE.parent}\n")
        sys.exit(2)
    sys.path.insert(0, str(PACKAGE.parent.parent))
    import hyplab

    if Path(hyplab.__file__).resolve() != PACKAGE:
        sys.stderr.write(f"bench: imported hyplab from {hyplab.__file__}, not {PACKAGE}\n")
        sys.exit(2)


def upper_decile(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def machine_reference() -> dict:
    """Median times (ms) of two fixed kernels, independent of hyplab."""
    import numpy as np

    a = np.random.default_rng(12345).integers(0, 1 << 40, size=1 << 19)

    def numpy_kernel():
        np.sort(a)
        int((a % 1_000_003).sum())

    def python_kernel():
        sum(i * i % 7 for i in range(200_000))

    out = {}
    for name, kernel in (("numpy_ms", numpy_kernel), ("python_ms", python_kernel)):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        out[name] = 1e3 * statistics.median(times)
    return out


def machine_record() -> dict:
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
    }


def run_rounds(workload, seconds: float, min_rounds: int, tracer=None, between=None):
    """Whole rounds of the workload's ops until ``seconds`` of them have run.

    ``between(timed_s)`` runs after each round, outside the timed region.
    Returns (round times, results, errors).
    """
    times, results, errors = [], [], 0
    while True:
        gc.collect()
        if tracer is not None:
            tracer.round = len(times)
        row = []
        t0 = time.perf_counter()
        for label, op in workload.ops:
            try:
                row.append(op())
            except Exception:  # an op that raises counts as failed; keep going
                errors += 1
                row.append(None)
                sys.stderr.write(f"bench: op {label} failed\n{traceback.format_exc()}")
        times.append(time.perf_counter() - t0)
        results.append(row)
        if between is not None:
            between(sum(times))
        if sum(times) >= seconds and len(times) >= min_rounds:
            return times, results, errors


def check_results(workload, results) -> int:
    """Number of op results that do not match the reference values."""
    bad = 0
    for row in results:
        for i, result in enumerate(row):
            if result is not None and not workload.check(i, result):
                bad += 1
                sys.stderr.write(f"bench: wrong result from op {workload.ops[i][0]}: {result!r}\n")
    return bad


class SetupSampler:
    """Set-up times of fresh interpreters, spread over the timed phase.

    Sample i is taken at the first round boundary after i/n of the timed
    work, so the samples see the host at the same moments as the rounds do
    rather than all in one stretch of a few seconds.
    """

    def __init__(self, args, n: int, seconds: float) -> None:
        self.cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
        ]
        if args.smoke:
            self.cmd.append("--smoke")
        self.due = [i * seconds / n for i in range(n)]
        self.samples: list[float] = []

    def __call__(self, timed_s: float) -> None:
        while self.due and timed_s >= self.due[0]:
            self.due.pop(0)
            self.samples.append(self._sample())

    def finish(self) -> list[float]:
        while self.due:
            self.due.pop(0)
            self.samples.append(self._sample())
        return self.samples

    def _sample(self) -> float:
        """Interpreter start to ready, in one fresh process."""
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child exited {code} without becoming ready")
        return t1 - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from hyplab import arith, registry

    from tracer import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}\n")
        return 2
    tracer = Tracer(arith) if args.trace else None
    if tracer is not None:
        tracer.install()
    registry.default_entries()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workload.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    seconds, min_rounds = (0.0, 1) if args.smoke else (args.seconds, MIN_ROUNDS)
    ref_start = machine_reference()
    if tracer is None:
        sampler = SetupSampler(args, 1 if args.smoke else SETUP_SAMPLES, seconds)
        times, results, errors = run_rounds(workload, seconds, min_rounds, between=sampler)
    else:
        tracer.uninstall()
        plain, results, errors = run_rounds(workload, seconds / 2, min_rounds)
        tracer.install()
        times, traced_results, traced_errors = run_rounds(
            workload, seconds / 2, min_rounds, tracer
        )
        tracer.uninstall()
        results += traced_results
        errors += traced_errors
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_end = machine_reference()

    t_check = time.perf_counter()
    mismatches = check_results(workload, results)
    check_s = time.perf_counter() - t_check
    attempted = sum(len(row) for row in results)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "machine": machine_record(),
        "reference_start": ref_start,
        "reference_end": ref_end,
        "check_s": check_s,
        "ops_per_round": len(workload.ops),
        "round_s": times,
        "attempted": attempted,
        "failed": errors + mismatches,
        "raised": errors,
        "wrong": mismatches,
    }
    if tracer is None:
        samples = sampler.finish()
        record["setup_samples_s"] = samples
        metrics = {
            "setup_s": (upper_decile(samples), "s"),
            "run_s": (upper_decile(times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        record["untraced_round_s"] = plain
        overhead = upper_decile(times) / upper_decile(plain)
        layer = tracer.layer_metrics(len(times), overhead)
        metrics = {name: (layer[name], unit) for name, unit in LAYER_METRICS}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"record": record, "metrics": layer, "spans": tracer.spans}))
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    OUT_DIR.mkdir(exist_ok=True)
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    run_path = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    run_path.write_text(json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in ("machine", "reference_start", "reference_end")}))
    result = {
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": errors + mismatches,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
