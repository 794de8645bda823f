"""Command line front end.

Subcommands: shortsum, delta, verify, envelopes, selftest.  Global flags
--threads, --cache-dir, --format, --seed, --epsilon, --config.  Exit codes:
0 success, 2 usage, 3 violated hypothesis or admissibility, 4 resource cap,
5 internal error.

Output is CSV by default (JSON with --format json), with integers printed
bare and reals in shortest round-trip form, so byte-identical reruns are the
expected behaviour and the tests enforce them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import arith, asymptotics, expsum, hooley, hyperbola, registry, specs
from .cache import CACHE_ENV_VAR, SegmentCache
from .errors import (
    HyplabError,
    InvalidSpecError,
    PreconditionError,
    ResourceLimitError,
)


class _UsageError(Exception):
    """Malformed invocation; maps to exit code 2."""

_FUNCTION_TOKENS = {
    "one": lambda k: specs.one(),
    "mobius": lambda k: specs.mobius(),
    "mu_k": lambda k: specs.mu_k(_need_k("mu_k", k)),
    "tau_k": lambda k: specs.tau_m(_need_k("tau_k", k)),
    "tau_paren_k": lambda k: specs.tau_kfree(_need_k("tau_paren_k", k)),
    "two_pow_omega": lambda k: specs.two_pow_omega(),
    "three_pow_omega": lambda k: specs.three_pow_omega(),
    "log_pow": lambda k: specs.log_pow(_need_k("log_pow", k)),
    "lambda_k": lambda k: specs.lambda_k(_need_k("lambda_k", k)),
}

_FUNCTION_ENTRY = {
    "tau_k": lambda k: registry.make_entry("cor2_tau_k", k),
    "tau_paren_k": lambda k: registry.make_entry("cor4_tau_paren_k", k),
    "two_pow_omega": lambda k: registry.make_entry("cor4_tau_paren_k", 2),
    "three_pow_omega": lambda k: registry.make_entry("cor6_three_omega"),
}


def _need_k(token: str, k):
    if k is None:
        raise _UsageError(f"function {token} requires --k")
    return k


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _jsonable(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return str(v)


def _emit(args, header, rows, out, extra=None, *, csv_extra=False, row_extra=()) -> None:
    """Write rows as CSV or as one JSON object.

    ``extra`` adds top-level JSON keys, also written after the CSV rows as
    ``key,value`` lines when ``csv_extra``; ``row_extra`` adds JSON-only keys
    to each row.
    """
    extra = extra or {}
    if args.format == "json":
        payload = [
            {k: _jsonable(v) for k, v in zip(header, row)} for row in rows
        ]
        for d, more in zip(payload, row_extra):
            d.update(more)
        out.write(json.dumps({"rows": payload, **extra}) + "\n")
    else:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
        if csv_extra:
            for k, v in extra.items():
                out.write(f"{k},{_fmt(v)}\n")


def _grid_value(tok: str) -> int:
    """An integer literal exactly, else a finite float with an integral value."""
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        v = float(tok)
    except ValueError:
        raise _UsageError(f"grid value {tok!r} is not a number") from None
    if not (math.isfinite(v) and v.is_integer()):
        raise _UsageError(f"grid value {tok!r} is not an integer")
    return int(v)


def _parse_grid(text: str) -> list[int]:
    vals = [_grid_value(tok) for tok in map(str.strip, text.split(",")) if tok]
    if not vals:
        raise _UsageError("empty grid")
    return vals


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config file {path!r}: {exc}") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"config line without '=': {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _add_global_flags(p: argparse.ArgumentParser, *, suppress: bool) -> None:
    d = argparse.SUPPRESS if suppress else None
    p.add_argument("--threads", type=int, default=d)
    p.add_argument("--cache-dir", default=d)
    p.add_argument("--format", choices=("csv", "json"), default=d)
    p.add_argument("--seed", type=int, default=d)
    p.add_argument("--epsilon", type=float, default=d)
    p.add_argument("--config", default=d, help="flat key=value defaults file")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="hyplab",
        description="exact short-interval sums of arithmetic functions",
    )
    _add_global_flags(p, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "shortsum", parents=[common], help="one exact window sum with prediction"
    )
    sp.add_argument("--function", required=True, choices=sorted(_FUNCTION_TOKENS))
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--method", default="sieve")
    sp.add_argument("--T", type=float, default=None, help="hyperbola split point")

    dp = sub.add_parser("delta", parents=[common], help="divisor concentration at one n")
    dp.add_argument("--n", type=int, required=True)
    dp.add_argument("--r", type=int, required=True)
    dp.add_argument("--check-lemma5", type=int, default=None, metavar="N")
    dp.add_argument("--work-cap", type=int, default=None)

    vp = sub.add_parser(
        "verify", parents=[common], help="window-sum experiment over an x grid"
    )
    vp.add_argument("--entry", required=True)
    vp.add_argument("--k", type=int, default=None)
    vp.add_argument("--xgrid", required=True)
    vp.add_argument("--yrule", default="geomean", choices=("geomean", "default"))
    vp.add_argument("--ylist", default=None, help="explicit window lengths")

    ep = sub.add_parser("envelopes", parents=[common], help="fitted-constant tables")
    ep.add_argument("--which", required=True, choices=("psi", "prop1", "lemma4", "lemma2"))
    ep.add_argument("--m", type=int, default=1)
    ep.add_argument("--r", type=int, default=2)
    ep.add_argument("--grid", default="small", choices=("small", "medium", "large"))
    ep.add_argument("--x", default=None, help="comma list of x values")
    ep.add_argument("--H", default=None, help="comma list of truncation orders")

    sub.add_parser("selftest", parents=[common], help="quick internal identity battery")
    return p


def _resolve_globals(args) -> None:
    cfg = _load_config(args.config) if args.config else {}
    numeric = (("threads", int, 1), ("seed", int, 1729), ("epsilon", float, 0.25))
    for key in cfg:
        if key not in ("threads", "seed", "epsilon", "format", "cache-dir"):
            raise _UsageError(f"unknown config key {key!r}")
    for key, parse, default in numeric:
        if getattr(args, key) is None:
            try:
                setattr(args, key, parse(cfg.get(key, default)))
            except ValueError:
                raise _UsageError(f"config key {key}: bad value {cfg[key]!r}") from None
    if args.format is None:
        args.format = cfg.get("format", "csv")
        if args.format not in ("csv", "json"):
            raise _UsageError(f"config key format: bad value {args.format!r}")
    if args.cache_dir is None:
        args.cache_dir = cfg.get("cache-dir") or os.environ.get(CACHE_ENV_VAR)
    if args.threads < 1:
        raise PreconditionError("--threads must be positive")
    if not (0.0 < args.epsilon <= 0.5):
        raise PreconditionError("--epsilon must lie in (0, 1/2]")
    try:  # each run installs its own cache, or none
        arith.set_segment_cache(SegmentCache(args.cache_dir) if args.cache_dir else None)
    except OSError as exc:
        raise _UsageError(f"cache directory {args.cache_dir!r}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_shortsum(args, out) -> int:
    if args.y < 1:
        raise _UsageError("--y must be a positive window length")
    F = _FUNCTION_TOKENS[args.function](args.k)
    entry = None
    maker = _FUNCTION_ENTRY.get(args.function)
    if maker is not None:
        entry = maker(args.k)
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise _UsageError("--method must name sieve and/or hyperbola")
    for m in methods:
        if m not in ("sieve", "hyperbola"):
            raise _UsageError(f"unknown method {m!r}")
    x, y = args.x, args.y
    # an inadmissible window is refused before anything is summed
    main = env1 = env2 = env3 = ""
    if entry is not None:
        h = entry.hypothesis
        main = asymptotics.main_term(h, x, y)
        env1, env2, env3 = asymptotics.error_envelope(
            h, x, y, args.epsilon, kappa_carries_eps=entry.kappa_carries_eps
        )
    rows = []
    values = {}
    for m in methods:
        if m == "sieve":
            values[m] = arith.short_sum_bruteforce(F, x, y)
        else:
            T = args.T
            if T is None:
                T = min(float(x), max(asymptotics.proof_path_parameters(x, y)[0], y, x / y))
            dec = hyperbola.short_hyperbola(
                specs.convolve(F, specs.mobius()), specs.one(), x, y, T
            )
            values[m] = dec.total
    for m in methods:
        rows.append([m, x, y, values[m], main, env1, env2, env3])
    _emit(args, ["method", "x", "y", "exact", "main", "env1", "env2", "env3"], rows, out)
    return 0


def _cmd_delta(args, out) -> int:
    if args.r not in (2, 3, 4):
        raise _UsageError(f"--r must be 2, 3 or 4, got {args.r}")
    if args.n < 1:
        raise _UsageError(f"--n must be positive, got {args.n}")
    dv = hooley.delta_r(args.n, args.r, work_cap=args.work_cap)
    witness = ";".join(repr(u) for u in dv.witness)
    header = ["n", "r", "value", "witness"]
    row = [args.n, args.r, dv.value, witness]
    if args.check_lemma5 is not None:
        lhs, rhs, holds = hooley.dyadic_tau_delta_check(
            args.n, args.r - 1, args.check_lemma5, delta_value=dv.value
        )
        header += ["bound_N", "bound_lhs", "bound_rhs", "bound_holds"]
        row += [args.check_lemma5, lhs, rhs, holds]
    _emit(args, header, [row], out)
    return 0


def _verify_rows(entry, xs, y_rule, epsilon, threads):
    def one_x(x):
        return asymptotics.run_short_sum_experiment(entry, [x], y_rule, epsilon).rows

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(one_x, xs))
    else:
        batches = [one_x(x) for x in xs]
    return [row for batch in batches for row in batch]


def _cmd_verify(args, out) -> int:
    try:
        entry = registry.make_entry(args.entry, args.k)
    except KeyError:
        sys.stderr.write(
            "unknown entry {0}; known entries: {1}\n".format(
                args.entry, ", ".join(registry.entry_ids())
            )
        )
        return 2
    xs = _parse_grid(args.xgrid)
    y_rule = args.yrule if args.ylist is None else _parse_grid(args.ylist)
    rows = _verify_rows(entry, xs, y_rule, args.epsilon, args.threads)
    header = [
        "x",
        "y",
        "exact",
        "main",
        "abs_err",
        "env1",
        "env2",
        "env3",
        "norm_err",
        "admissible",
    ]
    table = [
        [r.x, r.y, r.exact, r.main, r.abs_err, r.env1, r.env2, r.env3, r.norm_err, r.admissible]
        for r in rows
    ]
    row_extra = [
        ({} if r.alt_env1 is None else {"alt_env1": float(r.alt_env1)})
        | {"T": float(r.T), "H": int(r.H)}
        for r in rows
    ]
    extra = {"entry": entry.instance_id, "epsilon": args.epsilon}
    _emit(args, header, table, out, extra, row_extra=row_extra)
    return 0


def _psi_grid(n: int) -> np.ndarray:
    return np.linspace(1e-6, 1.0 - 1e-6, n)


def _cmd_envelopes(args, out) -> int:
    which = args.which
    if which == "psi":
        hs = _parse_grid(args.H) if args.H else [4, 16, 64]
        npts = {"small": 1001, "medium": 10001, "large": 100001}[args.grid]
        grid = _psi_grid(npts)
        rows, fitted = [], 0.0
        for H in hs:
            fit = expsum.psi_truncation_profile(H, grid)
            fitted = max(fitted, fit.fitted_constant)
            rows.extend(
                [H, t, l, e, l / e]
                for t, l, e in zip(fit.grid, fit.lhs_values, fit.envelope_values)
            )
        header = ["H", "t", "lhs", "envelope", "ratio"]
    elif which == "prop1":
        presets = {
            "small": ([100, 1000], [4, 16, 64], [4, 8, 16]),
            "medium": ([100, 1000, 10000], [4, 16, 64, 256], [4, 8, 16, 32]),
            "large": ([1000, 10000, 100000], [16, 64, 256, 1024], [4, 16, 64, 256]),
        }
        zs, ns, hs = presets[args.grid]
        grid = [
            (z, N, H, args.m)
            for z in zs
            for N in ns
            for H in hs
            if 4 <= H <= N <= z
        ]
        fit = expsum.tau_proximity_envelope_fit(grid)
        rows = [
            [z, N, H, m, l, e, l / e]
            for (z, N, H, m), l, e in zip(fit.grid, fit.lhs_values, fit.envelope_values)
        ]
        fitted = fit.fitted_constant
        header = ["z", "N", "H", "m", "lhs", "envelope", "ratio"]
    elif which == "lemma4":
        xs = _parse_grid(args.x) if args.x else [1000, 10000, 100000]
        rows = []
        fitted = 0.0
        for x in xs:
            lhs = hooley.delta_weighted_prefix(args.r, x)
            env = math.log(x) ** (1.0 + asymptotics.hooley_mean_exponent(x, args.r))
            rows.append([args.r, x, lhs, env, lhs / env])
            fitted = max(fitted, lhs / env)
        header = ["r", "x", "lhs", "envelope", "ratio"]
    else:
        # lemma2: remainder of the truncated Fourier split against the min-sum
        sizes = {"small": [64, 256], "medium": [64, 256, 1000], "large": [256, 1000, 4000]}
        rows, fitted = [], 0.0
        x = 20000
        for N in sizes[args.grid]:
            y = N // 3
            for H in (8, 64):
                f = specs.tau_m(2)
                sigma = hyperbola.sawtooth_block_sum(f, N, x, y)
                integral, remainder = expsum.truncated_fourier_split(f, N, x, y, H)
                env = max(
                    expsum.tau_proximity_sum(z, N, H, 2) for z in (x, x + y)
                )
                ratio = abs(remainder) / env
                fitted = max(fitted, ratio)
                rows.append([N, x, y, H, sigma, integral, remainder, env, ratio])
        header = ["N", "x", "y", "H", "sigma", "integral", "remainder", "envelope", "ratio"]
    _emit(args, header, rows, out, {"fitted_constant": fitted}, csv_extra=True)
    return 0


def _cmd_selftest(args, out) -> int:
    rng = random.Random(args.seed)
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        out.write(f"{'PASS' if ok else 'FAIL'} {name}\n")
        if not ok:
            failures += 1

    mu1 = arith.prefix_values(specs.convolve(specs.mobius(), specs.one()), 2000)
    check("mobius inversion", all(int(mu1[n]) == (1 if n == 1 else 0) for n in range(1, 2001)))

    ok = True
    for g in (specs.one(), specs.tau_m(2), specs.two_pow_omega()):
        inv = arith.dirichlet_inverse_prefix(g, 400)
        gv = arith.prefix_values(g, 400)
        conv = arith._conv_prefix_values(
            gv, np.concatenate(([0], inv.values)).astype(np.int64), 400
        )
        ok &= all(int(conv[n]) == (1 if n == 1 else 0) for n in range(1, 401))
    check("convolution inverse identity", ok)

    ok = True
    for _ in range(20):
        x = rng.randrange(2000, 100000)
        root = math.isqrt(x)
        y = rng.randrange(root + 1, 2 * root)
        T = float(max(y, math.ceil(x / y)) + rng.randrange(0, 50))
        dec = hyperbola.short_hyperbola(specs.tau_m(2), specs.one(), x, y, T)
        brute = arith.short_sum_bruteforce(
            specs.convolve(specs.tau_m(2), specs.one()), x, y
        )
        ok &= dec.total == brute
    check("short hyperbola identity", ok)

    ok = True
    for n in range(1, 301):
        ok &= hooley.delta_r(n, 2).value == hooley.delta_r_grid_oracle(n, 2, 1e-3)
    check("delta window oracle", ok)

    fit = expsum.psi_truncation_profile(16, _psi_grid(501))
    check("sawtooth truncation envelope", fit.fitted_constant <= 3.0)

    check(
        "mean exponent spot value",
        abs(
            asymptotics.hooley_mean_exponent(math.exp(math.exp(math.e)), 2)
            - 31.0 * math.sqrt(2.0 / math.e)
        )
        < 1e-9,
    )
    return 0 if failures == 0 else 5


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _resolve_globals(args)
        out = sys.stdout
        if args.command == "shortsum":
            return _cmd_shortsum(args, out)
        if args.command == "delta":
            return _cmd_delta(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        if args.command == "envelopes":
            return _cmd_envelopes(args, out)
        if args.command == "selftest":
            return _cmd_selftest(args, out)
        raise PreconditionError(f"unknown command {args.command!r}")
    except BrokenPipeError:
        return 0
    except _UsageError as exc:
        sys.stderr.write(f"hyplab: usage: {exc}\n")
        return 2
    except ResourceLimitError as exc:
        sys.stderr.write(f"hyplab: resource cap: {exc}\n")
        return 4
    except (PreconditionError, InvalidSpecError) as exc:
        sys.stderr.write(f"hyplab: {exc}\n")
        return 3
    except HyplabError as exc:
        sys.stderr.write(f"hyplab: internal error: {exc}\n")
        return 5


if __name__ == "__main__":
    sys.exit(main())
