"""Engine 1, the multiplicative window sieve, against the point route.

Random integer specs on random windows go through ``sieve_range`` and must
equal :func:`hyplab.arith.evaluate_point`, bit for bit and in exact Python
ints where int64 could wrap, and the concatenation of their sub-windows at
random cuts.  The windows are drawn to reach each branch of the sieve:
primes with strided slices (p < size // 256, or every p < size in a small
batch), and (window, prime, multiple) pairs, for p < size and for the primes
p >= size with at most one multiple each, a few of them and thousands, with
prime squares inside the window.  A cut moves primes across the size // 256
and size boundaries.
"""

import math
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from hyplab import arith, specs  # noqa: E402

_LEAVES = st.sampled_from(
    [
        specs.one(),
        specs.identity_at_1(),
        specs.mobius(),
        specs.mu_k(2),
        specs.mu_k(3),
        specs.tau_m(2),
        specs.tau_m(3),
        specs.tau_m(4),
        specs.tau_kfree(3),
        specs.two_pow_omega(),
        specs.three_pow_omega(),
        # locals past the int64 guard from 2^27 on: the object-dtype sieve
        specs.tau_m(40),
    ]
)


def _integer_specs(depth):
    if depth == 0:
        return _LEAVES
    sub = _integer_specs(depth - 1)
    return st.one_of(
        _LEAVES,
        st.builds(specs.convolve, sub, sub),
        st.builds(specs.pointwise, sub, sub),
        st.builds(specs.dirichlet_inverse, sub),
    )


def _primes(a, b):
    return [p for p in range(a, b) if all(p % q for q in range(2, math.isqrt(p) + 1))]


# batched primes of a 5000-wide window run from 19 (= 5000 // 256) to 5000
_MID_PRIMES = _primes(17, 5000)


def _log_uniform(draw, lo_bits, hi_bits):
    b = draw(st.integers(lo_bits, hi_bits))
    return draw(st.integers(1 << (b - 1), (1 << b) - 1))


@st.composite
def _windows(draw):
    kind = draw(st.sampled_from(["far", "wide", "mid", "square"]))
    if kind == "far":
        # sqrt(hi) far above the size: most primes have one multiple or none
        lo = _log_uniform(draw, 20, 40)
        size = draw(st.integers(1, 48))
    elif kind == "wide":
        # thousands of primes with one multiple or none, a few strided
        lo = _log_uniform(draw, 34, 36)
        size = draw(st.integers(1024, 4096))
    elif kind == "mid":
        lo = _log_uniform(draw, 1, 26)
        size = draw(st.integers(1, 5000))
    else:
        # a prime square p^2 (and maybe 2 p^2, 3 p^2, ..) inside the window
        p = draw(st.sampled_from(_MID_PRIMES))
        size = draw(st.integers(1, 5000))
        lo = max(1, p * p - draw(st.integers(0, size - 1)))
    hi = lo + size - 1
    cuts = draw(st.lists(st.integers(lo + 1, hi), max_size=3)) if lo < hi else []
    return lo, hi, tuple(sorted(set(cuts)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=_integer_specs(2), window=_windows())
# each branch for sure: strided and batched primes with p^2 = 4489 inside,
# the primes p >= size near 2^40 and on a wide window near 2^36, exact ints
# where int64 locals would wrap
@example(spec=specs.tau_m(3), window=(1, 5000, (19, 2500)))
@example(spec=specs.mu_k(2), window=(4000, 9000, ()))
@example(spec=specs.tau_m(2), window=((1 << 40) - 30, (1 << 40) + 1, ((1 << 40) - 7,)))
@example(spec=specs.tau_m(4), window=((1 << 36) - 2000, (1 << 36) + 2095, ((1 << 36) - 1000,)))
@example(spec=specs.tau_m(40), window=((1 << 30) + 1, (1 << 30) + 800, ()))
@example(spec=specs.dirichlet_inverse(specs.tau_m(3)), window=(10**12, 10**12 + 40, ()))
# exponents >= 4 leave the signature counts and are multiplied in at the end:
# 3^20 in the strided branch (3 < size // 256), 211^4 among the batched pairs
# of a 1000-entry window, 101^4 among the pairs of p >= size, and the
# exact-int fix-ups of tau_40 on batched pairs
@example(spec=specs.tau_m(3), window=(3**20 - 600, 3**20 + 423, (3**20,)))
@example(spec=specs.tau_m(4), window=(211**4 - 500, 211**4 + 499, ()))
@example(spec=specs.tau_m(3), window=(101**4 - 1, 101**4 + 1, ()))
@example(spec=specs.tau_m(40), window=(3**20 - 300, 3**20 + 300, (3**20 + 1,)))
# n = 100003 * 99991: 100003 is the first prime above isqrt(hi) = 99996 and
# the part found, 99991, is as close to sqrt(n) as a leftover allows
@example(spec=specs.tau_m(3), window=(9999399970, 9999399976, ()))
# a prefix whose pieces cross several powers of two
@example(spec=specs.tau_m(3), window=(1, 5000, (3, 100, 1025)))
# 2 3 5 .. 37 has 12 distinct prime factors
@example(spec=specs.tau_m(3), window=(7420738134810 - 2, 7420738134810 + 2, ()))
def test_engine1_matches_points(spec, window):
    lo, hi, cuts = window
    vals = arith.sieve_range(spec, lo, hi).values
    ends = [lo, *cuts, hi + 1]
    parts = [arith.sieve_range(spec, a, b - 1).values for a, b in zip(ends, ends[1:])]
    assert np.concatenate(parts).tolist() == vals.tolist()
    # the point route divides by the primes up to sqrt(n): a wide far window
    # is checked at a sample of its entries
    ns = np.arange(lo, hi + 1)
    if ns.size * math.isqrt(hi) > 1 << 26:
        ns = np.random.default_rng(lo).choice(ns, 8, replace=False)
    want = [arith.evaluate_point(spec, n) for n in ns.tolist()]
    assert vals[ns - lo].tolist() == want
    if vals.dtype != object:
        assert max(map(abs, want)) < 1 << 62


def test_engine1_int64_products_do_not_wrap():
    # every local of tau_40 fits in int64 below 2^26, but their product at
    # 2^10 3^2 5 7 11 13 does not; it used to wrap to a negative value
    n = 46126080
    got = arith.sieve_range(specs.tau_m(40), n - 3, n + 3).values
    assert got.dtype == object
    assert got.tolist() == [arith.evaluate_point(specs.tau_m(40), m) for m in range(n - 3, n + 4)]


def test_engine1_peak_memory():
    spec = specs.tau_m(2)
    lo, size = 2_000_000_001, 1 << 18
    want = arith.sieve_range(spec, lo, lo + size - 1).values  # warm the caches
    tracemalloc.start()
    try:
        got = arith.sieve_range(spec, lo, lo + size - 1).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= 32 * size


def test_engine1_every_short_window_and_prefix():
    # the signature index, the binade thresholds of the leftover test and the
    # branch cut-offs all move with lo and hi: cover every small case, the
    # windows that end at one hi as one batch, each prefix as a batch of one
    spec = specs.tau_m(3)
    want = [0] + [arith.evaluate_point(spec, n) for n in range(1, 5001)]
    sieve = arith._mult_window_values
    for hi in range(1, 5001):
        lo = np.arange(max(1, hi - 7), hi + 1)
        got = sieve(spec, lo, np.full(lo.size, hi)).tolist()
        assert got == [v for a in lo.tolist() for v in want[a : hi + 1]], hi
    for N in range(1, 2001):
        assert sieve(spec, *arith._span(1, N)).tolist() == want[1 : N + 1], N
