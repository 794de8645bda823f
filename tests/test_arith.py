import math
import random
import tracemalloc

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
from hyplab import arith, hyperbola, registry, specs
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


def test_segment_cap_enforced(monkeypatch):
    monkeypatch.setattr(arith, "SEGMENT_CAP", 50)
    with pytest.raises(SegmentCapError):
        arith.sieve_range(specs.one(), 1, 100)


def test_prime_sieve_over_cap_refused(monkeypatch):
    limit = arith._prime_limit
    monkeypatch.setattr(arith, "SEGMENT_CAP", 1000)
    with pytest.raises(SegmentCapError):
        arith.primes_upto(1001)
    with pytest.raises(SegmentCapError):
        arith.factorize(1003 * 1009)
    assert arith._prime_limit == limit
    assert arith.primes_upto(1000)[-1] == 997


def test_prime_sieve_growth_stops_at_cap(monkeypatch):
    primes = arith.primes_upto(1 << 16)
    monkeypatch.setattr(arith, "_prime_limit", 1 << 16)
    monkeypatch.setattr(arith, "_prime_array", primes)
    monkeypatch.setattr(arith, "SEGMENT_CAP", 100_000)
    got = arith.primes_upto(70_000)
    # doubling would sieve to 2^17; the cap stops it at 100000
    assert arith._prime_limit == 100_000
    assert got.tolist() == [p for p in range(2, 70_001) if brute_factor(p) == [(p, 1)]]


@pytest.mark.parametrize(
    "spec", [specs.convolve(specs.log_pow(1), specs.log_pow(1)), specs.tau_m(3)], ids=str
)
def test_growing_prefix_table_is_built_in_one_piece(spec, monkeypatch):
    arith.clear_table_cache()
    arith.prefix_sums(spec, 241_000)
    swept = []
    range_values = arith._range_values

    def record(s, lo, hi):
        swept.append((lo, hi))
        return range_values(s, lo, hi)

    monkeypatch.setattr(arith, "_range_values", record)
    arith.prefix_sums(spec, 249_000)
    grown = arith._table_cache[spec.key]
    assert swept == [(1, 482_000)] and grown["N"] == 482_000
    arith.clear_table_cache()
    arith.prefix_sums(spec, 482_000)
    fresh = arith._table_cache[spec.key]
    arith.clear_table_cache()
    for name in ("values", "sums"):
        assert grown[name].dtype == fresh[name].dtype
        assert grown[name].tobytes() == fresh[name].tobytes()


def test_shared_arrays_are_read_only():
    # writing back the value already there leaves a writable cache intact
    spec = specs.tau_m(2)
    arith.clear_table_cache()
    shared = (arith.primes_upto(100), arith.prefix_values(spec, 100), arith.prefix_sums(spec, 100))
    for arr in shared:
        with pytest.raises(ValueError):
            arr[12] = arr[12]
    arith.clear_table_cache()


def test_empty_prefix_table():
    for name, spec in registry.base_specs().items():
        arith.clear_table_cache()
        assert arith.prefix_values(spec, 0).tolist() == [0], name
        assert arith.prefix_sums(spec, 0).tolist() == [0], name
        with pytest.raises(PreconditionError):
            arith.prefix_values(spec, -1)
        assert arith.prefix_values(spec, 12)[12] == arith.evaluate_point(spec, 12), name
    arith.clear_table_cache()


def test_sum_from_zero_grows_no_table_past_the_cap(monkeypatch):
    # a sum from x = 0 is a window like any other: its segments are swept
    # on their own, with the same values at any cap, and build no table
    spec = specs.convolve(specs.log_pow(1), specs.log_pow(1))
    monkeypatch.setattr(arith, "SEGMENT_CAP", 20_000)
    arith.clear_table_cache()
    want = arith.short_sum_bruteforce(spec, 0, 200_000)
    arith.clear_table_cache()
    monkeypatch.setattr(arith, "PREFIX_WINDOW_MAX", 50_000)
    got = arith.short_sum_bruteforce(spec, 0, 200_000)
    built = dict(arith._table_cache)
    arith.clear_table_cache()
    assert got.hex() == want.hex()
    assert built == {}


def test_no_prefix_table_past_the_cap(monkeypatch):
    # a growing table stops doubling at PREFIX_WINDOW_MAX, a request past the
    # cap is refused before the cached table is touched, and windows below
    # the cap build no table at all
    s = specs.convolve(specs.log_pow(1), specs.log_pow(1))
    monkeypatch.setattr(arith, "PREFIX_WINDOW_MAX", 5000)
    arith.clear_table_cache()
    arith.prefix_sums(s, 3000)
    arith.prefix_sums(s, 4000)
    assert arith._table_cache[s.key]["N"] == 5000
    arith.clear_table_cache()
    arith.sieve_range(s, 2000, 2600)
    arith.sieve_range(s, 4000, 5000)
    assert s.key not in arith._table_cache
    arith.prefix_values(s, 5000)
    before = [(key, id(entry)) for key, entry in arith._table_cache.items()]
    with pytest.raises(SegmentCapError):
        arith.prefix_values(s, 5001)
    assert [(key, id(entry)) for key, entry in arith._table_cache.items()] == before
    arith.clear_table_cache()


def test_far_window_pointwise_engine(monkeypatch):
    # real values do not depend on the route: windows are swept on their
    # own, prefix tables from 1, and single points recurse over the
    # factorization; every route adds a convolution's terms in increasing d
    # over its first factor, so all three agree bit for bit
    inputs = (
        specs.convolve(specs.log_pow(1), specs.log_pow(1)),
        specs.lambda_k(1),
        specs.lambda_k(2),
        specs.convolve(specs.lambda_k(1), specs.convolve(specs.tau_m(2), specs.log_pow(1))),
        specs.lambda_attached(specs.mu_k(2)),
        registry.make_entry("cor7_lambda_g").F_spec,
        registry.make_entry("cor8_log_k", 1).F_spec,
    )

    def points(s, lo, hi):
        return [arith.evaluate_point(s, n) for n in range(lo, hi + 1)]

    lo = arith.PREFIX_WINDOW_MAX + 11
    hi = lo + 15
    for s in inputs:
        assert arith._choose_engine(s, lo, hi) == "n"
        assert arith.sieve_range(s, lo, hi).values.tolist() == points(s, lo, hi), s.key
    # the same at a small scale, where the prefix table is cheap to build
    lo, hi = 20011, 20026
    below = {s: arith.sieve_range(s, lo, hi).values.tolist() for s in inputs}
    table = {s: arith.prefix_values(s, hi)[lo : hi + 1].tolist() for s in inputs}
    monkeypatch.setattr(arith, "PREFIX_WINDOW_MAX", lo - 1)
    for s in inputs:
        assert arith._choose_engine(s, lo, hi) == "n"
        far = arith.sieve_range(s, lo, hi).values.tolist()
        assert far == below[s] == table[s] == points(s, lo, hi), s.key


def test_far_window_covers(monkeypatch):
    # a cor8(1) verify row: one child window per d and per cofactor j made
    # 65880 recursion calls, and per-block covers still 14394, most of them
    # tiny log windows; batched pairs take log leaves at their points, so
    # the row makes a few hundred, and no cover outgrows max(2 _CONV_BLOCK, y)
    spec = registry.make_entry("cor8_log_k", 1).F_spec
    x, y = 5234567, 1100
    calls, covers = [0], []
    window_values, cover = arith._window_values, arith._cover

    def count(*args):
        calls[0] += 1
        return window_values(*args)

    def spy(*args):
        got = cover(*args)
        if got is not None:
            covers.append(len(got))
        return got

    monkeypatch.setattr(arith, "_window_values", count)
    monkeypatch.setattr(arith, "_cover", spy)
    vals = arith.sieve_range(spec, x + 1, x + y).values
    assert calls[0] < 1_000
    assert covers and max(covers) <= max(2 * arith._CONV_BLOCK, y)
    for n in range(x + 1, x + y + 1, 97):
        assert vals[n - x - 1] == arith.evaluate_point(spec, n)


def test_far_sweep_peak_memory():
    # the (d, j) pairs of a far sweep go in batches of at most _CONV_BLOCK, so
    # a wide far window holds its output, one cover per loop and level and
    # a bounded batch, not an index array per block
    spec = registry.make_entry("cor8_log_k", 1).F_spec
    x, y = 5_000_000, 100_000
    want = arith.sieve_range(spec, x + 1, x + y).values  # warm the caches
    tracemalloc.start()
    try:
        got = arith.sieve_range(spec, x + 1, x + y).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= 16 * y + (2 << 20)


def test_real_sum_peak_memory():
    # a real window sum feeds math.fsum from the window array: no Python
    # list of the window (32 bytes an entry on top of its 8) is built
    spec = specs.lambda_k(1)
    x, y = 10_000_000, 1 << 18
    want = arith.short_sum_bruteforce(spec, x, y)  # warm the caches
    tracemalloc.start()
    try:
        got = arith.short_sum_bruteforce(spec, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.hex() == want.hex()
    assert got == math.fsum(arith.sieve_range(spec, x + 1, x + y).values.tolist())
    assert peak <= 16 * y + (2 << 20)


def test_window_below_cap_builds_no_table():
    # a window ending below PREFIX_WINDOW_MAX costs y + sqrt(x), like a far
    # one: it reads no prefix table, so no table of x entries is built
    spec = registry.make_entry("cor8_log_k", 1).F_spec
    x, y = 3_900_000, 1100
    assert x + y <= arith.PREFIX_WINDOW_MAX
    arith.clear_table_cache()
    arith.primes_upto(math.isqrt(x + y))  # warm the shared prime cache
    tracemalloc.start()
    try:
        got = arith.sieve_range(spec, x + 1, x + y).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(arith._table_cache) == []
    assert peak <= 16 * y + (2 << 20)
    for n in range(x + 1, x + y + 1, 97):
        assert got[n - x - 1] == arith.evaluate_point(spec, n)


def test_cor8_far_window_sieves_no_unit_factor(monkeypatch):
    # cor8(1)'s integer factor mobius * tau_2 is the constant 1: its values
    # are ones, with no pass of the window sieve
    spec = registry.make_entry("cor8_log_k", 1).F_spec
    x, y = 4_965_892, 1100
    calls = []
    sieve = arith._mult_window_values

    def spy(*args):
        calls.append(args)
        return sieve(*args)

    monkeypatch.setattr(arith, "_mult_window_values", spy)
    vals = arith.sieve_range(spec, x + 1, x + y).values
    assert calls == []
    for n in range(x + 1, x + y + 1, 97):
        assert vals[n - x - 1] == arith.evaluate_point(spec, n)


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


def test_short_sum_segment_independence(monkeypatch):
    spec = specs.tau_m(3)
    ref = arith.short_sum_bruteforce(spec, 9000, 4000)
    real = specs.convolve(specs.log_pow(1), specs.one())
    ref_r = arith.short_sum_bruteforce(real, 9000, 4000)
    # the cap also bounds the prime sieve, which needs isqrt(13000) = 114
    for cap in (127, 1000, 4096):
        monkeypatch.setattr(arith, "SEGMENT_CAP", cap)
        assert arith.short_sum_bruteforce(spec, 9000, 4000) == ref
        got = arith.short_sum_bruteforce(real, 9000, 4000)
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


def test_conv_int64_guard():
    # products near 2^80 would wrap in int64; the sweep switches to exact ints
    rng = random.Random(11)
    N = 64
    fv = np.array([0] + [rng.randrange(-(2**40), 2**40 + 1) for _ in range(N)], dtype=np.int64)
    gv = np.array([0] + [2**40] * N, dtype=np.int64)
    got = arith._conv_prefix_values(fv, gv, N)
    want = [0] * (N + 1)
    for d in range(1, N + 1):
        for j in range(1, N // d + 1):
            want[d * j] += int(fv[d]) * int(gv[j])
    assert got.dtype == object
    assert got.tolist() == want


def test_int64_escalation_paths():
    vals = np.full(8, 1 << 61, dtype=np.int64)
    sums = arith._running_sum(vals.copy())
    assert sums.dtype == object
    assert int(sums[-1]) == 8 * (1 << 61)
    assert arith._exact_int_sum(vals) == 8 * (1 << 61)


def test_running_sums_take_the_narrowest_exact_type():
    # int32 while every partial sum stays below 2^30, so a difference of two
    # fits too; int64 above that, up to the guard bound
    small = arith._running_sum(np.array([0] + [-7, 3] * 500, dtype=np.int64))
    assert small.dtype == np.int32 and int(small[-1]) == -2000
    big = arith._running_sum(np.full(1024, 1 << 20, dtype=np.int64))
    assert big.dtype == np.int64 and int(big[-1]) == 1 << 30
    # a hyperbola leg differences int32 sums and stays exact
    arith.clear_table_cache()
    assert arith.prefix_sums(specs.tau_m(2), 50_000).dtype == np.int32
    f, g = specs.mobius(), specs.tau_m(2)
    dec = hyperbola.short_hyperbola(f, g, 40_000, 300, 400)
    arith.clear_table_cache()
    assert dec.total == arith.short_sum_bruteforce(specs.convolve(f, g), 40_000, 300)
