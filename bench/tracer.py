"""Spans around calls into hyplab's public functions, and the per-layer metrics.

The tracer replaces each traced function at every hyplab module that holds
it, so calls made inside the package (``arith.short_sum_bruteforce`` calling
``sieve_range``, ``hyperbola`` calling its imported ``prefix_sums``) are seen
as well as the benchmark's own calls.  Nothing under ``src/`` changes:
uninstalling puts the original objects back.

Each span records its name, start, end, parent span and the round it ran in.
A span's self time is its duration minus the durations of its direct
children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, function) pairs wrapped by the tracer: the public entry points of
#: each measured layer.
TRACED = [
    ("arith", "primes_upto"),
    ("arith", "evaluate_point"),
    ("arith", "sieve_range"),
    ("arith", "short_sum_bruteforce"),
    ("arith", "prefix_values"),
    ("arith", "prefix_sums"),
    ("hyperbola", "short_hyperbola"),
    ("hooley", "delta_short_sum"),
    ("asymptotics", "run_short_sum_experiment"),
    ("registry", "make_entry"),
    ("registry", "default_entries"),
    ("cli", "main"),
]

#: Per-layer metrics reported by a traced run: (name, unit).
LAYER_METRICS = [
    ("arith.sieve.entries", "count"),
    ("arith.sieve.entries_per_s", "1/s"),
    ("arith.prefix.builds", "count"),
    ("arith.prefix.entries_built", "count"),
    ("arith.prefix.build_s", "s"),
    ("arith.prefix.hit_ratio", "ratio"),
    ("arith.far.points", "count"),
    ("arith.far.points_per_s", "1/s"),
    ("arith.point.calls", "count"),
    ("arith.point.s", "s"),
    ("hyperbola.short.calls", "count"),
    ("hyperbola.short.self_s", "s"),
    ("hyperbola.d_blocks", "count"),
    ("hyperbola.k_terms", "count"),
    ("hooley.delta_sum.n", "count"),
    ("hooley.delta_sum.n_per_s", "1/s"),
    ("asymptotics.experiment.self_s", "s"),
    ("cli.self_s", "s"),
    ("arith.primes.s", "s"),
    ("registry.make_entry_s", "s"),
    ("trace.overhead", "ratio"),
]


class Tracer:
    def __init__(self, arith) -> None:
        self.arith = arith
        self.spans: list[dict] = []
        self.round = "setup"
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a hyplab module holds it."""
        pkg = [m for name, m in sys.modules.items() if name.split(".")[0] == "hyplab"]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"hyplab.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in pkg:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        note = getattr(self, "_note_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "round": self.round,
            }
            self.spans.append(span)
            before = self._table_keys() if name.startswith("arith.prefix") else None
            self._stack.append(span)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
            if before is not None:
                after = self._table_keys()
                span["built"] = [
                    self.arith._table_cache[k]["N"]
                    for k, ident in after.items()
                    if before.get(k) != ident
                ]
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced

    def _table_keys(self) -> dict[str, int]:
        # a build inserts a new entry object under its spec key; a hit
        # leaves every entry object in place
        return {k: id(v) for k, v in self.arith._table_cache.items()}

    # -- per-call annotations ----------------------------------------------

    def _note_arith_sieve_range(self, span, args, kwargs, result) -> None:
        spec, lo, hi = args[:3]
        engine = kwargs.get("_engine") or self.arith._choose_engine(spec, lo, hi)
        span["engine"] = engine[0]
        span["entries"] = hi - lo + 1

    def _note_hyperbola_short_hyperbola(self, span, args, kwargs, result) -> None:
        span["d_blocks"] = result.d_count
        span["k_terms"] = result.k_count

    def _note_hooley_delta_short_sum(self, span, args, kwargs, result) -> None:
        span["n"] = args[2] if len(args) > 2 else kwargs["y"]

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, traced_rounds: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics, per round of the timed work (set-up ones once)."""
        timed = [s for s in self.spans if s["round"] != "setup"]
        setup = [s for s in self.spans if s["round"] == "setup"]
        dur = {s["id"]: s["t1"] - s["t0"] for s in self.spans}
        child_s: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + dur[s["id"]]

        def pick(name):
            return [s for s in timed if s["name"] == name]

        def total(spans):
            return sum(dur[s["id"]] for s in spans)

        def self_s(name):
            return sum(dur[s["id"]] - child_s.get(s["id"], 0.0) for s in pick(name))

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        sieve = [s for s in pick("arith.sieve_range") if s["engine"] == "m"]
        far = [s for s in pick("arith.sieve_range") if "n" in s["engine"]]
        prefix = pick("arith.prefix_values") + pick("arith.prefix_sums")
        builds = [s for s in prefix if s["built"]]
        short = pick("hyperbola.short_hyperbola")
        delta = pick("hooley.delta_short_sum")
        sieve_n = sum(s["entries"] for s in sieve)
        far_n = sum(s["entries"] for s in far)
        delta_n = sum(s["n"] for s in delta)
        registry = [
            s
            for s in setup
            if s["name"].startswith("registry.")
            and (s["parent"] is None or not self.spans[s["parent"]]["name"].startswith("registry."))
        ]
        per_round = {
            "arith.sieve.entries": sieve_n,
            "arith.prefix.builds": sum(len(s["built"]) for s in builds),
            "arith.prefix.entries_built": sum(sum(s["built"]) for s in builds),
            "arith.prefix.build_s": total(builds),
            "arith.far.points": far_n,
            "arith.point.calls": len(pick("arith.evaluate_point")),
            "arith.point.s": total(pick("arith.evaluate_point")),
            "hyperbola.short.calls": len(short),
            "hyperbola.short.self_s": self_s("hyperbola.short_hyperbola"),
            "hyperbola.d_blocks": sum(s["d_blocks"] for s in short),
            "hyperbola.k_terms": sum(s["k_terms"] for s in short),
            "hooley.delta_sum.n": delta_n,
            "asymptotics.experiment.self_s": self_s("asymptotics.run_short_sum_experiment"),
            "cli.self_s": self_s("cli.main"),
        }
        out = {k: v / traced_rounds for k, v in per_round.items()}
        out.update(
            {
                "arith.sieve.entries_per_s": rate(sieve_n, total(sieve)),
                "arith.prefix.hit_ratio": rate(len(prefix) - len(builds), len(prefix)),
                "arith.far.points_per_s": rate(far_n, total(far)),
                "hooley.delta_sum.n_per_s": rate(delta_n, total(delta)),
                "arith.primes.s": total([s for s in setup if s["name"] == "arith.primes_upto"]),
                "registry.make_entry_s": total(registry),
                "trace.overhead": overhead,
            }
        )
        return out
