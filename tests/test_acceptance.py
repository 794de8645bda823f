"""Acceptance suite: one test per release criterion, one PASS line each.

Runs the full property battery at the contract tolerances: exact hyperbola
identity over seeded random triples, the constant-free dyadic divisor bound
exhaustively, window-oracle equivalence for the concentration function,
inversion identities, the sawtooth truncation envelope, Fourier-split
reconciliation, the two window-sum trend criteria with frozen goldens,
residual ratio scans, the closed-form exponent spot value, and byte-level
CLI determinism.
"""

import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import record_acceptance
from hyplab import arith, asymptotics as asy, expsum, hooley, hyperbola, registry, specs

SEED = 20260810


def _report(name: str) -> None:
    record_acceptance(f"PASS {name}")


def _sample_triples(rng, count):
    """Seeded (x, y, T) satisfying 1 <= max(y, x/y) <= T <= x, x + y <= 1.13e6."""
    out = []
    while len(out) < count:
        x = int(round(10 ** rng.uniform(3.3, 6.0)))
        u = rng.random()
        expo = rng.uniform(0.32, 0.62) if u < 0.85 else rng.uniform(0.62, 0.8)
        y = max(2, min(int(round(x**expo)), 120_000))
        tmin = max(y, math.ceil(x / y))
        if tmin > x:
            continue
        v = rng.random()
        if v < 0.15:
            T = (x + y) / rng.randrange(1, 6)
            if not (tmin <= T <= x):
                T = float(rng.randrange(tmin, x + 1))
        elif v < 0.3:
            T = float(rng.randrange(tmin, x + 1))
        else:
            T = min(max(10 ** rng.uniform(math.log10(tmin), math.log10(x)), tmin), float(x))
        out.append((x, y, T))
    return out


def test_criterion_hyperbola_exactness():
    t0 = time.time()
    pairs = registry.hyperbola_pairs()
    top = 1_130_000
    for _, f, g in pairs:
        arith.prefix_sums(f, top)
        arith.prefix_sums(g, top)
    rng = random.Random(SEED)
    for label, f, g in pairs:
        conv = specs.convolve(f, g)
        isint = conv.integer_valued
        for x, y, T in _sample_triples(rng, 200):
            dec = hyperbola.short_hyperbola(f, g, x, y, T)
            brute = arith.short_sum_bruteforce(conv, x, y)
            if isint:
                assert dec.total == brute, (label, x, y, T)
            else:
                assert abs(dec.total - brute) <= 1e-9 * max(1.0, abs(brute)), (
                    label,
                    x,
                    y,
                    T,
                )
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"hyperbola suite took {elapsed:.1f} s"
    _report(f"hyperbola exactness ({len(pairs)} pairs x 200 triples, {elapsed:.1f} s)")


def test_criterion_dyadic_tau_bound_exhaustive():
    t0 = time.time()
    checks = 0
    for r, n_max in ((1, 20_000), (2, 20_000), (3, 2_000)):
        deltas = hooley.iter_delta_values(1, n_max, r + 1)
        for n, dv in deltas:
            top = 1 if n == 1 else 1 << (n - 1).bit_length()
            N = 1
            while N <= top:
                lhs, rhs, holds = hooley.dyadic_tau_delta_check(
                    n, r, N, delta_value=dv
                )
                assert holds, (n, r, N, lhs, rhs)
                checks += 1
                N *= 2
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"bound scan took {elapsed:.1f} s"
    _report(f"dyadic divisor bound ({checks} checks, zero violations, {elapsed:.1f} s)")


def test_criterion_delta_oracle_equivalence():
    for r in (2, 3):
        for n, dv in hooley.iter_delta_values(1, 2000, r):
            oracle = hooley.delta_r_grid_oracle(n, r, 1e-4)
            assert dv == oracle, (n, r, dv, oracle)
    _report("delta window oracle equivalence (n <= 2000, r in {2, 3})")


def test_criterion_inversion_identities():
    N = 1000
    mu1 = arith.prefix_values(specs.convolve(specs.mobius(), specs.one()), N)
    assert int(mu1[1]) == 1 and not mu1[2:].any()

    ones = arith.prefix_values(specs.one(), N)
    for name, g in registry.base_specs().items():
        if g.value_at_1() == 0:
            continue
        inv = arith.dirichlet_inverse_prefix(g, N)
        gv = arith.prefix_values(g, N)
        iv = np.concatenate(([0], inv.values)).astype(gv.dtype)
        conv = arith._conv_prefix_values(gv, iv, N)
        if g.integer_valued:
            assert int(conv[1]) == 1 and not conv[2:].any(), name
        else:
            assert conv[1] == pytest.approx(1.0, abs=1e-9), name
            assert np.max(np.abs(conv[2:])) < 1e-9, name

    for name, F in registry.base_specs().items():
        tr = arith.eratosthenes_transform(F, N)
        tv = np.concatenate(([0], tr.values))
        back = arith._conv_prefix_values(tv, ones.astype(tv.dtype), N)
        direct = arith.prefix_values(F, N)
        if F.integer_valued:
            assert np.array_equal(back, direct), name
        else:
            scale = np.maximum(1.0, np.abs(direct[1:]))
            assert np.max(np.abs(back[1:] - direct[1:]) / scale) < 1e-12, name
    _report("inversion and transform identities (registry, n <= 1000)")


def test_criterion_sawtooth_truncation_envelope():
    grid = np.linspace(1e-6, 1 - 1e-6, 10_000)
    fitted = 0.0
    for H in (4, 16, 64):
        fit = expsum.psi_truncation_profile(H, grid)
        fitted = max(fitted, fit.fitted_constant)
    assert fitted <= 3.0, fitted
    _report(f"sawtooth truncation envelope (fitted C = {fitted:.6f} <= 3)")


def test_criterion_fourier_split_reconciliation():
    fs = [specs.one(), specs.mobius(), specs.tau_m(2), specs.mu_k(2), specs.two_pow_omega()]
    grid = [
        (f, N, x, y, H)
        for f in fs
        for N in (50, 200, 1000)
        for (x, y) in ((20_000, None), (5_000, None))
        for H in (8, 64)
    ][:50]
    assert len(grid) == 50
    for f, N, x, _, H in grid:
        y = max(1, N // 3)
        integral, remainder = expsum.truncated_fourier_split(f, N, x, y, H)
        sigma = hyperbola.sawtooth_block_sum(f, N, x, y)
        assert abs(integral + remainder - sigma) <= 1e-6, (f.key, N, x, y, H)
    _report("fourier split reconciliation (50-point grid, 1e-6)")


def _trend_ratios(entry_id, k, frozen):
    entry = registry.make_entry(entry_id, k)
    t0 = time.time()
    rep = asy.run_short_sum_experiment(entry, [10**6, 10**7, 10**8], "geomean", 0.25)
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"{entry_id} grid took {elapsed:.1f} s"
    ratios = [float(r.exact) / r.main for r in rep.rows]
    for r in rep.rows:
        assert r.admissible
        assert math.isfinite(r.norm_err)
    assert all(math.isfinite(q) and q > 0 for q in ratios)
    decreasing = ratios[0] > ratios[1] > ratios[2] > 1.0
    in_band = 0.8 <= ratios[2] <= 2.0
    assert decreasing or in_band, ratios
    for got, want in zip(ratios, frozen):
        assert got == pytest.approx(want, rel=1e-9), (got, want)
    return ratios, elapsed


def test_criterion_tau4_trend():
    ratios, elapsed = _trend_ratios(
        "cor2_tau_k",
        4,
        (1.5687469866250792, 1.4834805537647704, 1.415584640780145),
    )
    _report(
        "tau_4 window trend (ratios "
        + " > ".join(f"{q:.4f}" for q in ratios)
        + f", {elapsed:.1f} s)"
    )


def test_criterion_kfree_divisor_trend():
    ratios, elapsed = _trend_ratios(
        "cor4_tau_paren_k",
        2,
        (1.1667278100440281, 1.1426076893882853, 1.124635887851072),
    )
    _report(
        "2^omega window trend (ratios "
        + " > ".join(f"{q:.4f}" for q in ratios)
        + f", {elapsed:.1f} s)"
    )


def test_criterion_residual_ratio_scans():
    one, tau2, tau3 = specs.one(), specs.tau_m(2), specs.tau_m(3)
    h2 = registry.make_entry("cor2_tau_k", 2).hypothesis
    h3 = registry.make_entry("cor2_tau_k", 3).hypothesis
    h4 = registry.make_entry("cor2_tau_k", 4).hypothesis

    # frozen bounds from a first oracle run; scans must stay bounded and the
    # late points must not grow past the early ones
    recip = {
        "one": (one, h2, 0.60),
        "tau2": (tau2, h3, 1.30),
        "tau3": (tau3, h4, 1.10),
    }
    for name, (f, h, bound) in recip.items():
        ratios = []
        for i in range(6):
            T = 1000 * 2**i
            _, _, res = asy.reciprocal_prefix_check(f, h, T)
            ratios.append(abs(res) / math.log(T) ** h.s)
        assert max(ratios) <= bound, (name, ratios)
        assert max(ratios[3:]) <= 1.05 * max(ratios[:3]), (name, ratios)

    ratios = []
    for i in range(6):
        x = 100_000 * 2**i
        y = int(x**0.55)
        T = 2 * max(y, -(-x // y))
        _, _, res = asy.tail_window_sum_check(tau2, h3, x, y, T)
        ratios.append(abs(res) / asy.tail_window_envelope(h3, x, y, T))
    assert max(ratios) <= 1.0, ratios
    assert max(ratios[3:]) <= 1.05 * max(ratios[:3]), ratios

    for j, bound in ((0, 0.60), (2, 0.62)):
        ratios = []
        for i in range(6):
            x = 10_000 * 2**i
            _, _, res = asy.log_power_sum_check(x, math.isqrt(x), j)
            ratios.append(abs(res) / math.log(x) ** j)
        assert max(ratios) <= bound, (j, ratios)
        assert max(ratios[3:]) <= 1.05 * max(ratios[:3]), (j, ratios)
    _report("residual ratio scans (bounded, non-growing, 6-point doublings)")


def test_criterion_mean_exponent_spot_value():
    got = asy.hooley_mean_exponent(math.exp(math.exp(math.e)), 2)
    want = 31.0 * math.sqrt(2.0 / math.e)
    assert abs(got - want) <= 1e-9 * want
    _report(f"mean exponent spot value ({got!r})")


def test_criterion_cli_determinism():
    args = [
        sys.executable,
        "-m",
        "hyplab.cli",
        "verify",
        "--entry",
        "cor2_tau_k",
        "--k",
        "4",
        "--xgrid",
        "1e5,2e5,4e5",
    ]
    outs = []
    for threads in ("1", "1", "8"):
        r = subprocess.run(
            args + ["--threads", threads], capture_output=True, timeout=300
        )
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1] == outs[2]
    _report("verify output byte-identical across reruns and thread counts")
