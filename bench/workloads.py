"""The four benchmark workloads: seeded inputs, the ops they time, their checks.

A workload is a fixed list of ops (one round).  The runner repeats whole
rounds, so every op is attempted equally often.  Inputs are drawn from the
seed by stratified sampling: op i of m draws its x from the i-th of m equal
slices of the x range, so that every seed gives a round of nearly the same
cost and a run-to-run difference reflects the program or the machine rather
than the draw.

Ops call hyplab through module attributes (``cli.main``, not a name imported
from ``hyplab.cli``), so a traced run sees them.  Checks compare each op's
result with values from :mod:`reference`, computed apart from hyplab.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

from hyplab import arith, cli, hooley, hyperbola, registry

import reference

#: Relative tolerance for real-valued window sums.
REAL_RTOL = 1e-9


def _strata(rng: random.Random, lo: int, hi: int, m: int) -> list[int]:
    """m integers, the i-th uniform on the i-th of m equal slices of [lo, hi)."""
    width = (hi - lo) / m
    return [lo + int((i + rng.random()) * width) for i in range(m)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REAL_RTOL * max(abs(a), abs(b), 1.0)


def verify_exact(entry_id: str, k, x: int, y: int):
    """One `hyplab verify` row run in-process; returns its exact window sum."""
    argv = ["verify", "--entry", entry_id, "--xgrid", str(x), "--ylist", str(y)]
    if k is not None:
        argv += ["--k", str(k)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hyplab verify exited {code}: {' '.join(argv)}")
    header, row = buf.getvalue().splitlines()[:2]
    fields = dict(zip(header.split(","), row.split(",")))
    if (int(fields["x"]), int(fields["y"])) != (x, y):
        raise RuntimeError(f"verify answered for ({fields['x']}, {fields['y']})")
    exact = fields["exact"]
    return float(exact) if any(c in exact for c in ".en") else int(exact)


class Workload:
    """Base: ``ops`` is a list of (label, callable); ``check(i, result)`` -> bool."""

    name = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.rng = random.Random(f"{self.name}/{seed}")
        self.smoke = smoke
        self.ops: list[tuple[str, object]] = []
        self._refs: dict[int, object] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def check(self, i: int, result) -> bool:
        if i not in self._refs:
            self._refs[i] = self.reference(i)
        return self.matches(i, result, self._refs[i])

    def reference(self, i: int):
        raise NotImplementedError

    def matches(self, i: int, result, ref) -> bool:
        return result == ref


class SieveRows(Workload):
    """`verify` rows of the integer registry entries: engine 1 does the work."""

    name = "sieve_rows"
    ENTRIES = [
        ("cor2_tau_k", 2),
        ("cor2_tau_k", 3),
        ("cor2_tau_k", 4),
        ("cor3_tau_sq", None),
        ("cor3_tau_cube", None),
        ("cor4_tau_paren_k", 2),
        ("cor5_tau_star_mu_k", 2),
        ("cor6_three_omega", None),
    ]
    X_RANGE = (10**9, 4 * 10**9)

    def setup(self) -> None:
        self.y = 1 << 10 if self.smoke else 1 << 18
        xs = _strata(self.rng, *self.X_RANGE, len(self.ENTRIES))
        self.rows = [(e, k, x) for (e, k), x in zip(self.ENTRIES, xs)]
        for entry_id, k in self.ENTRIES:
            registry.make_entry(entry_id, k)
        arith.primes_upto(math.isqrt(self.X_RANGE[1] + self.y))
        self.ops = [
            (f"{e}({k})@{x}", lambda e=e, k=k, x=x: verify_exact(e, k, x, self.y))
            for e, k, x in self.rows
        ]

    def reference(self, i: int):
        entry_id, k, x = self.rows[i]
        if (entry_id, k) == ("cor2_tau_k", 2):
            return reference.divisor_summatory(x + self.y) - reference.divisor_summatory(x)
        return reference.multiplicative_window_sum(
            reference.ENTRY_LOCALS[entry_id, k], x + 1, x + self.y
        )


class HyperbolaCold(Workload):
    """`short_hyperbola` over every registry pair with an empty table cache."""

    name = "hyperbola_cold"
    TOP_RANGE = (240_000, 250_000)
    Y_RANGE = (400, 1200)

    def setup(self) -> None:
        if self.smoke:
            top_range, y_range, per_pair = (3_000, 3_200), (40, 80), 1
        else:
            top_range, y_range, per_pair = self.TOP_RANGE, self.Y_RANGE, 4
        self.calls = []
        self.ops = []
        for name, f, g in registry.hyperbola_pairs():
            triples = []
            for top in _strata(self.rng, *top_range, per_pair):
                y = self.rng.randrange(*y_range)
                x = top - y
                # any real T with max(y, x/y) <= T <= x is admissible
                T = max(y, x / y) * (1.01 + self.rng.random())
                triples.append((x, y, T))
            # largest window first: each table is built once per pair, at
            # a size that does not depend on the order of the draws
            triples.sort(key=lambda t: -(t[0] + t[1]))
            for j, (x, y, T) in enumerate(triples):
                self.calls.append((f, g, x, y, T))
                self.ops.append(
                    (f"{name}@{x},{y}", self._op(f, g, x, y, T, cold=(j == 0)))
                )
        self.evaluator = None

    @staticmethod
    def _op(f, g, x, y, T, cold: bool):
        def op():
            if cold:
                arith.clear_table_cache()
            dec = hyperbola.short_hyperbola(f, g, x, y, T)
            return dec.term_d, dec.term_k, dec.boundary_term, dec.total
        return op

    def reference(self, i: int):
        f, g, x, y, T = self.calls[i]
        if self.evaluator is None:
            top = max(c[2] + c[3] for c in self.calls)
            self.evaluator = reference.SpecEvaluator(top)
        return self.evaluator.convolution_window_sum(f, g, x, y)

    def matches(self, i: int, result, ref) -> bool:
        term_d, term_k, boundary, total = result
        if isinstance(ref, int):
            return total == term_d + term_k + boundary == ref
        return _close(total, term_d + term_k + boundary) and _close(total, ref)


class FarRows(Workload):
    """`verify` rows of cor7 and cor8(1) above PREFIX_WINDOW_MAX: per-point engine."""

    name = "far_rows"
    X_RANGE = (4_500_000, 8_000_000)
    #: Windows at the admissible lower end (y_min is 789 at 4.5e6, 1041 at 8e6).
    Y = 1100

    def setup(self) -> None:
        self.y = 40 if self.smoke else self.Y
        registry.make_entry("cor7_lambda_g")
        registry.make_entry("cor8_log_k", 1)
        x7, x8 = (self.rng.randrange(*self.X_RANGE) for _ in range(2))
        self.rows = [("cor7_lambda_g", None, x7), ("cor8_log_k", 1, x8)]
        arith.primes_upto(math.isqrt(self.X_RANGE[1] + self.y))
        self.ops = [
            (f"{e}@{x}", lambda e=e, k=k, x=x: verify_exact(e, k, x, self.y))
            for e, k, x in self.rows
        ]

    def reference(self, i: int):
        entry_id, _, x = self.rows[i]
        value = reference.cor7_value if entry_id == "cor7_lambda_g" else reference.cor8_1_value
        return reference.far_window_sum(value, x + 1, x + self.y)

    def matches(self, i: int, result, ref) -> bool:
        return isinstance(result, float) and _close(result, ref)


class DeltaWindows(Workload):
    """`hooley.delta_short_sum` for r = 2 and r = 3: only hooley works."""

    name = "delta_windows"
    X_RANGE = (200_000, 1_000_000)
    #: (r, window length); sized well inside the per-call work cap.
    WINDOWS = [(2, 4_000), (3, 750)] * 4
    SMOKE_WINDOWS = [(2, 200), (3, 100)]
    #: Values of Delta_3 checked per window against the exhaustive count.
    DELTA3_SAMPLE = 20

    def setup(self) -> None:
        windows = self.SMOKE_WINDOWS if self.smoke else self.WINDOWS
        x_range = (20_000, 40_000) if self.smoke else self.X_RANGE
        xs = _strata(self.rng, *x_range, len(windows))
        self.windows = [(r, x, y) for (r, y), x in zip(windows, xs)]
        self.samples = [
            self.rng.sample(range(x + 1, x + y + 1), min(self.DELTA3_SAMPLE, y))
            for r, x, y in self.windows
        ]
        self.ops = [
            (f"delta{r}@{x},{y}", lambda r=r, x=x, y=y: hooley.delta_short_sum(r, x, y))
            for r, x, y in self.windows
        ]
        self.spf = None

    def reference(self, i: int):
        r, x, y = self.windows[i]
        if self.spf is None:
            self.spf = reference.smallest_factor_table(max(x + y for _, x, y in self.windows))
        per_n = dict(hooley.iter_delta_values(x + 1, x + y, r))
        check_at = range(x + 1, x + y + 1) if r == 2 else self.samples[i]
        ok = True
        for n in check_at:
            divs = reference.divisors_of(reference.factor_with(self.spf, n))
            own = reference.delta2(divs) if r == 2 else reference.delta3(n, divs)
            ok = ok and own == per_n[n]
        return sum(per_n.values()) if ok else None

    def matches(self, i: int, result, ref) -> bool:
        return ref is not None and result == ref


WORKLOADS = {w.name: w for w in (SieveRows, HyperbolaCold, FarRows, DeltaWindows)}
