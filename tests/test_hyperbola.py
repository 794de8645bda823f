import math
import random
from fractions import Fraction

import pytest

from conftest import brute_divisors, psi_oracle
from hyplab import arith, hyperbola, registry, specs
from hyplab.errors import PreconditionError, SegmentCapError


def brute_conv_window(f, g, x, y):
    total = 0 if (f.integer_valued and g.integer_valued) else 0.0
    for n in range(x + 1, x + y + 1):
        for d in brute_divisors(n):
            total += arith.evaluate_point(f, d) * arith.evaluate_point(g, n // d)
    return total


def test_psi_examples():
    assert hyperbola.psi(0.25) == -0.25
    assert hyperbola.psi(3.0) == -0.5
    rng = random.Random(11)
    for _ in range(100):
        t = rng.uniform(-50, 50)
        assert hyperbola.psi(t + 1) == pytest.approx(hyperbola.psi(t), abs=1e-9)
        assert hyperbola.psi(t) == pytest.approx(psi_oracle(t), abs=1e-12)
        assert -0.5 <= hyperbola.psi(t) < 0.5


def test_nearest_int_dist_examples():
    assert hyperbola.nearest_int_dist(0.6) == pytest.approx(0.4)
    assert hyperbola.nearest_int_dist(17.0) == 0.0
    assert hyperbola.nearest_int_dist(-2.5) == 0.5


def test_short_hyperbola_tau_example():
    dec = hyperbola.short_hyperbola(specs.one(), specs.one(), 100, 10, 10.0)
    assert dec.total == brute_conv_window(specs.one(), specs.one(), 100, 10) == 56
    assert dec.term_d + dec.term_k + dec.boundary_term == dec.total


def test_short_hyperbola_mobius_vanishes():
    for x, y, T in ((100, 10, 12.0), (5000, 71, 71.0), (999, 40, 200.0)):
        dec = hyperbola.short_hyperbola(specs.mobius(), specs.one(), x, y, T)
        assert dec.total == 0


def test_boundary_vanishes_when_ratio_is_integer():
    # T chosen so (x+y)/T is an integer: the boundary window is empty
    x, y = 995, 45
    T = (x + y) / 4  # 260.0
    dec = hyperbola.short_hyperbola(specs.tau_m(2), specs.one(), x, y, T)
    assert dec.boundary_term == 0
    assert dec.total == brute_conv_window(specs.tau_m(2), specs.one(), x, y)


def test_boundary_case_analysis_seeded():
    rng = random.Random(404)
    nonzero_seen = 0
    for _ in range(200):
        x = rng.randrange(500, 40_000)
        y = rng.randrange(5, int(math.isqrt(x)) + 5)
        tmin = max(y, math.ceil(x / y))
        T = rng.uniform(tmin, min(x, 4 * tmin))
        dec = hyperbola.short_hyperbola(specs.tau_m(2), specs.one(), x, y, T)
        Tq = Fraction(T)
        k0 = (x + y) // Tq
        contains_integer = k0 - (x // Tq) == 1
        exact_ratio = Fraction(x + y) / Tq == k0
        if dec.boundary_term != 0:
            assert contains_integer and not exact_ratio
            nonzero_seen += 1
        brute = arith.short_sum_bruteforce(
            specs.convolve(specs.tau_m(2), specs.one()), x, y
        )
        assert dec.total == brute
    assert nonzero_seen > 0


def test_hypothesis_violations_are_named():
    with pytest.raises(PreconditionError, match="y <= T"):
        hyperbola.short_hyperbola(specs.one(), specs.one(), 100, 20, 10.0)
    with pytest.raises(PreconditionError, match="x/y <= T"):
        hyperbola.short_hyperbola(specs.one(), specs.one(), 10_000, 20, 30.0)
    with pytest.raises(PreconditionError, match="T <= x"):
        hyperbola.short_hyperbola(specs.one(), specs.one(), 100, 50, 120.0)
    for T in (float("inf"), float("nan")):
        with pytest.raises(PreconditionError, match="finite real number"):
            hyperbola.short_hyperbola(specs.tau_m(2), specs.one(), 100, 10, T)


def test_operation_count_meter():
    x, y = 63_000, 400
    T = 500.0
    dec = hyperbola.short_hyperbola(specs.tau_m(2), specs.one(), x, y, T)
    assert dec.d_count + dec.k_count <= math.floor(T) + x / T + 2
    assert dec.k_count == int(x // Fraction(T))


_FAR_CAP = 5_000


def test_far_route_matches_bruteforce(monkeypatch):
    """Above the prefix cap every inner window is a short_sum_bruteforce call."""
    monkeypatch.setattr(arith, "PREFIX_WINDOW_MAX", _FAR_CAP)
    arith.clear_table_cache()
    rng = random.Random(2024)
    boundary_seen = 0
    for name, f, g in registry.hyperbola_pairs():
        x = rng.randrange(6_000, 60_000)
        y = 4 * math.isqrt(x) + rng.randrange(0, 20)
        # T just above x/k0 puts k0 in (x/T, (x+y)/T]: a nonzero boundary window
        k0 = x // y
        for T in (rng.uniform(y, 3 * y), Fraction(x + 1, k0)):
            dec = hyperbola.short_hyperbola(f, g, x, y, T)
            brute = arith.short_sum_bruteforce(specs.convolve(f, g), x, y)
            if f.integer_valued and g.integer_valued:
                parts = (dec.term_d, dec.term_k, dec.boundary_term, dec.total)
                assert all(type(v) is int for v in parts), (name, x, y, T)
                assert dec.total == brute, (name, x, y, T)
            else:
                assert dec.total == pytest.approx(brute, rel=1e-12), (name, x, y, T)
            boundary_seen += dec.boundary_term != 0
        # no table reaches x: the cost is y + sqrt(x) work
        assert max(e["N"] for e in arith._table_cache.values()) <= _FAR_CAP, name
    assert boundary_seen >= 10
    f, g = specs.mobius(), specs.tau_m(2)
    assert hyperbola.long_hyperbola(f, g, _FAR_CAP, 70.0) == arith.short_sum_bruteforce(
        specs.convolve(f, g), 0, _FAR_CAP
    )
    with pytest.raises(SegmentCapError):
        hyperbola.long_hyperbola(f, g, _FAR_CAP + 1, 70.0)


def test_real_valued_path_matches_brute():
    f, g = specs.log_pow(1), specs.one()
    x, y, T = 5000, 100, 100.0
    dec = hyperbola.short_hyperbola(f, g, x, y, T)
    brute = brute_conv_window(f, g, x, y)
    assert dec.total == pytest.approx(brute, rel=1e-11)


def test_real_pair_parts_are_floats():
    pairs = [(f, g) for _, f, g in registry.hyperbola_pairs()]
    pairs += [(specs.tau_m(2), specs.log_pow(1)), (specs.log_pow(1), specs.tau_m(2))]
    for f, g in pairs:
        if f.integer_valued and g.integer_valued:
            continue
        # T = 100.5 gives a boundary term; at T = 102.0, (x+y)/T = 50 and it vanishes
        for T in (100.5, 102.0):
            dec = hyperbola.short_hyperbola(f, g, 5000, 100, T)
            parts = (dec.term_d, dec.term_k, dec.boundary_term, dec.total)
            assert [type(v) for v in parts] == [float] * 4, (f, g, T)


def test_long_hyperbola_examples():
    assert hyperbola.long_hyperbola(specs.one(), specs.one(), 100, 10.0) == 482
    assert hyperbola.long_hyperbola(specs.mobius(), specs.one(), 50, 7.0) == 1
    direct = sum(
        arith.evaluate_point(specs.tau_m(2), n) for n in range(1, 101)
    )
    assert direct == 482


def test_long_hyperbola_T_independence():
    x = 4000
    ref = None
    for T in (1.0, float(round(x ** (1 / 3))), float(math.isqrt(x)), float(x)):
        got = hyperbola.long_hyperbola(specs.one(), specs.one(), x, T)
        ref = got if ref is None else ref
        assert got == ref


def test_sawtooth_block_sum_example():
    got = hyperbola.sawtooth_block_sum(specs.one(), 5, 100, 3)
    oracle = math.fsum(
        psi_oracle(103 / n) - psi_oracle(100 / n) for n in range(6, 11)
    )
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(0.9369047619047619, abs=1e-12)


def test_sawtooth_block_sum_zero_window():
    assert hyperbola.sawtooth_block_sum(specs.one(), 5, 100, 0) == 0.0


def test_sawtooth_block_sum_preconditions():
    with pytest.raises(PreconditionError):
        hyperbola.sawtooth_block_sum(specs.one(), 5, 4, 3)  # N > x
    with pytest.raises(PreconditionError):
        hyperbola.sawtooth_block_sum(specs.one(), 3, 100, 3)  # y not < N
