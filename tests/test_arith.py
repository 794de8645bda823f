import math
import random

import numpy as np
import pytest

from conftest import (
    brute_divisors,
    brute_factor,
    brute_kfree,
    brute_lambda_k,
    brute_mobius,
    brute_tau_m,
)
from hyplab import arith, registry, specs
from hyplab.errors import InvalidSpecError, PreconditionError, SegmentCapError


def test_evaluate_point_divisor_counts():
    assert arith.evaluate_point(specs.tau_m(2), 1) == 1
    assert arith.evaluate_point(specs.tau_m(3), 4) == brute_tau_m(3, 4) == 6
    for n in (1, 2, 12, 36, 97, 360):
        for m in (1, 2, 3, 4):
            assert arith.evaluate_point(specs.tau_m(m), n) == brute_tau_m(m, n)


def test_evaluate_point_mobius_and_kfree():
    assert arith.evaluate_point(specs.mobius(), 30) == -1
    for n in range(1, 200):
        assert arith.evaluate_point(specs.mobius(), n) == brute_mobius(n)
        assert arith.evaluate_point(specs.mu_k(2), n) == brute_kfree(2, n)
        assert arith.evaluate_point(specs.mu_k(3), n) == brute_kfree(3, n)


def test_evaluate_point_lambda_k():
    v = arith.evaluate_point(specs.lambda_k(2), 4)
    assert v == pytest.approx(3 * math.log(2) ** 2, rel=1e-12)
    for n in (1, 2, 8, 12, 30):
        got = arith.evaluate_point(specs.lambda_k(2), n)
        assert got == pytest.approx(brute_lambda_k(2, n), abs=1e-12)


def test_evaluate_point_range_check():
    with pytest.raises(PreconditionError):
        arith.evaluate_point(specs.one(), 0)
    with pytest.raises(PreconditionError):
        arith.evaluate_point(specs.one(), 2**63)


def test_sieve_range_examples():
    tab = arith.sieve_range(specs.one(), 5, 9)
    assert tab.values.tolist() == [1, 1, 1, 1, 1]
    tab = arith.sieve_range(specs.tau_m(2), 101, 110)
    oracle = sum(len(brute_divisors(n)) for n in range(101, 111))
    assert int(tab.values.sum()) == oracle == 56
    tab = arith.sieve_range(specs.mu_k(2), 1, 10)
    assert int(tab.values.sum()) == sum(brute_kfree(2, n) for n in range(1, 11)) == 7


def test_sieve_matches_point_on_windows(base_spec_map):
    for name, s in base_spec_map.items():
        for lo, hi in ((1, 64), (5021, 5060), (524287, 524300)):
            tab = arith.sieve_range(s, lo, hi)
            for n in range(lo, hi + 1):
                pt = arith.evaluate_point(s, n)
                got = tab.value_at(n)
                if s.integer_valued:
                    assert got == pt, (name, n)
                else:
                    assert got == pytest.approx(pt, rel=1e-12, abs=1e-12), (name, n)


def test_segment_cap_enforced():
    with pytest.raises(SegmentCapError):
        arith.sieve_range(specs.one(), 1, 100, segment_cap=50)


def test_far_window_pointwise_engine():
    # beyond the prefix cap, divisor-loop specs fall back to per-point
    # evaluation from the windowed factorization
    lo = arith.PREFIX_WINDOW_MAX + 11
    hi = lo + 15
    for s in (
        specs.convolve(specs.log_pow(1), specs.log_pow(1)),
        specs.lambda_k(1),
        specs.convolve(specs.lambda_k(1), specs.convolve(specs.tau_m(2), specs.log_pow(1))),
        specs.lambda_attached(specs.mu_k(2)),
        registry.make_entry("cor7_lambda_g").F_spec,
    ):
        tab = arith.sieve_range(s, lo, hi)
        for n in range(lo, hi + 1):
            assert tab.value_at(n) == pytest.approx(
                arith.evaluate_point(s, n), rel=1e-12, abs=1e-12
            )


def test_convolve_point_examples():
    assert arith.dirichlet_convolve_point(specs.mobius(), specs.one(), 1) == 1
    assert arith.dirichlet_convolve_point(specs.mobius(), specs.one(), 12) == 0
    got = arith.dirichlet_convolve_point(specs.one(), specs.one(), 6)
    assert got == len(brute_divisors(6)) == 4
    got = arith.dirichlet_convolve_point(specs.log_pow(1), specs.log_pow(1), 4)
    oracle = math.fsum(
        math.log(d) * math.log(4 // d) for d in brute_divisors(4)
    )
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(math.log(2) ** 2, rel=1e-12)


def test_inverse_prefix_mobius():
    tab = arith.dirichlet_inverse_prefix(specs.one(), 1000)
    for n in range(1, 1001):
        assert tab.value_at(n) == brute_mobius(n)


def test_inverse_prefix_small_recurrence():
    tab = arith.dirichlet_inverse_prefix(specs.mu_k(2), 2)
    assert tab.value_at(2) == -1


def test_inverse_defining_identity(base_spec_map):
    for name, g in base_spec_map.items():
        if g.value_at_1() == 0:
            continue
        N = 300
        inv = arith.dirichlet_inverse_prefix(g, N)
        for n in (1, 2, 17, 36, 250):
            total = 0 if g.integer_valued else 0.0
            for d in brute_divisors(n):
                total += arith.evaluate_point(g, d) * inv.value_at(n // d)
            want = 1 if n == 1 else 0
            if g.integer_valued:
                assert total == want, (name, n)
            else:
                assert total == pytest.approx(want, abs=1e-9), (name, n)


def test_inverse_rejects_zero_unit():
    with pytest.raises(InvalidSpecError):
        arith.dirichlet_inverse_prefix(specs.log_pow(1), 10)


def test_eratosthenes_transform_examples():
    tab = arith.eratosthenes_transform(specs.tau_m(2), 200)
    assert all(tab.value_at(n) == 1 for n in range(1, 201))
    tab4 = arith.eratosthenes_transform(specs.tau_m(4), 200)
    for n in range(1, 201):
        assert tab4.value_at(n) == arith.evaluate_point(specs.tau_m(3), n)
    t3 = arith.eratosthenes_transform(specs.three_pow_omega(), 10)
    oracle = sum(
        3 ** len(brute_factor(d)) * brute_mobius(6 // d) for d in brute_divisors(6)
    )
    assert t3.value_at(6) == oracle == 4


def test_transform_round_trip(base_spec_map):
    N = 400
    ones = arith.prefix_values(specs.one(), N)
    for name, F in base_spec_map.items():
        tr = arith.eratosthenes_transform(F, N)
        vals = np.concatenate(([0], tr.values))
        back = arith._conv_prefix_values(vals, ones.astype(vals.dtype), N)
        direct = arith.prefix_values(F, N)
        if F.integer_valued:
            assert np.array_equal(back, direct), name
        else:
            assert np.allclose(back[1:], direct[1:], rtol=1e-9, atol=1e-9), name


def test_von_mangoldt_attached_examples():
    lam = arith.von_mangoldt_attached(specs.one(), 30)
    for n in range(1, 31):
        oracle = math.fsum(
            brute_mobius(d) * math.log(n // d) for d in brute_divisors(n)
        )
        assert lam.value_at(n) == pytest.approx(oracle, abs=1e-12)
    assert lam.value_at(4) == pytest.approx(math.log(2), rel=1e-12)

    lg = arith.von_mangoldt_attached(specs.mu_k(2), 10)
    assert lg.value_at(2) == pytest.approx(math.log(2), rel=1e-12)


def test_von_mangoldt_attached_reproduces_g_log(base_spec_map):
    N = 300
    for name in ("one", "tau_2", "mu_2", "two_pow_omega"):
        g = base_spec_map[name]
        lam = arith.von_mangoldt_attached(g, N)
        conv = arith._conv_prefix_values(
            np.concatenate(([0.0], lam.values)),
            arith.prefix_values(g, N).astype(np.float64),
            N,
        )
        assert conv[1] == pytest.approx(0.0, abs=1e-12)
        for n in range(2, N + 1):
            want = arith.evaluate_point(g, n) * math.log(n)
            assert conv[n] == pytest.approx(want, rel=1e-9, abs=1e-9), (name, n)


def test_short_sum_examples():
    assert arith.short_sum_bruteforce(specs.one(), 100, 10) == 10
    assert arith.short_sum_bruteforce(specs.tau_m(2), 100, 10) == 56
    assert arith.short_sum_bruteforce(specs.mu_k(2), 0, 10) == 7


def test_short_sum_segment_independence():
    spec = specs.tau_m(3)
    ref = arith.short_sum_bruteforce(spec, 9000, 4000)
    for cap in (64, 1000, 4096):
        assert arith.short_sum_bruteforce(spec, 9000, 4000, segment_cap=cap) == ref
    real = specs.convolve(specs.log_pow(1), specs.one())
    ref_r = arith.short_sum_bruteforce(real, 9000, 4000)
    for cap in (64, 1000, 4096):
        got = arith.short_sum_bruteforce(real, 9000, 4000, segment_cap=cap)
        assert got == ref_r  # bit identical by the streaming reduction


def test_mobius_inversion_to_1e4():
    vals = arith.prefix_values(specs.convolve(specs.mobius(), specs.one()), 10_000)
    assert int(vals[1]) == 1
    assert not vals[2:].any()


def test_tau_multiplicative_on_coprime_pairs():
    rng = random.Random(7)
    spec = specs.tau_m(3)
    checked = 0
    while checked < 200:
        a = rng.randrange(2, 10_000)
        b = rng.randrange(2, 10_000)
        if math.gcd(a, b) != 1 or a * b > 2**63 - 1:
            continue
        assert arith.evaluate_point(spec, a * b) == arith.evaluate_point(
            spec, a
        ) * arith.evaluate_point(spec, b)
        checked += 1


def test_int64_escalation_paths():
    vals = np.full(8, 1 << 61, dtype=np.int64)
    sums = arith._checked_int_cumsum(vals)
    assert sums.dtype == object
    assert int(sums[-1]) == 8 * (1 << 61)
    assert arith._exact_int_sum(vals) == 8 * (1 << 61)
