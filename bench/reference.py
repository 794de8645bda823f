"""Reference arithmetic written apart from hyplab, used to check its outputs.

Nothing here imports hyplab.  Factorizations come from this module's own
prime sieve; local values are written from each function's definition; the
Delta counts are exhaustive over divisor-anchored windows.  The code favours
being obviously right over being fast, and runs after the timed phase.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from math import comb

import numpy as np


def primes_to(n: int) -> np.ndarray:
    """All primes <= n (plain sieve of Eratosthenes)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p).astype(np.int64)


def smallest_factor_table(n: int) -> np.ndarray:
    """spf[m] = smallest prime factor of m for 2 <= m <= n."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in primes_to(math.isqrt(n)).tolist():
        block = spf[p * p :: p]
        block[block == 0] = p
    rest = np.flatnonzero(spf == 0)
    spf[rest] = rest
    return spf


def factor_with(spf: np.ndarray, n: int) -> list[tuple[int, int]]:
    fac = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        fac.append((p, e))
    return fac


def factor_trial(n: int, primes: list[int]) -> list[tuple[int, int]]:
    """Trial division by the given primes; the cofactor left over is prime."""
    fac = []
    for p in primes:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            fac.append((p, e))
    if n > 1:
        fac.append((n, 1))
    return fac


def divisors_of(fac: list[tuple[int, int]]) -> list[int]:
    divs = [1]
    for p, e in fac:
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# sieve_rows: window sums of the integer registry functions
# ---------------------------------------------------------------------------

#: Value at p^e of each integer registry function F, from its definition.
ENTRY_LOCALS = {
    ("cor2_tau_k", 2): lambda e: e + 1,
    ("cor2_tau_k", 3): lambda e: comb(e + 2, 2),
    ("cor2_tau_k", 4): lambda e: comb(e + 3, 3),
    # tau(n)^2
    ("cor3_tau_sq", None): lambda e: (e + 1) ** 2,
    # tau(n^3)
    ("cor3_tau_cube", None): lambda e: 3 * e + 1,
    # number of squarefree divisors
    ("cor4_tau_paren_k", 2): lambda e: 2 if e else 1,
    # sum over d | n of tau(n/d) mu(d)^2
    ("cor5_tau_star_mu_k", 2): lambda e: 2 * e + 1,
    # 3^omega(n)
    ("cor6_three_omega", None): lambda e: 3 if e else 1,
}


def divisor_summatory(x: int) -> int:
    """D(x) = sum of tau(n) over n <= x = 2 sum_{d <= sqrt x} floor(x/d) - floor(sqrt x)^2."""
    r = math.isqrt(x)
    d = np.arange(1, r + 1, dtype=np.int64)
    return 2 * int(np.sum(x // d)) - r * r


def multiplicative_window_sum(local, lo: int, hi: int) -> int:
    """Sum over lo <= n <= hi of the multiplicative function with p^e -> local(e).

    The exponent of each prime p <= sqrt(hi) at n is counted as the number of
    powers p^j that divide n; what is left after removing those powers is 1
    or a single prime above sqrt(hi).
    """
    size = hi - lo + 1
    n = np.arange(lo, hi + 1, dtype=np.int64)
    rest = n.copy()
    table = np.array([local(e) for e in range(64)], dtype=np.int64)
    value = np.ones(size, dtype=np.int64)
    for p in primes_to(math.isqrt(hi)).tolist():
        first = (-lo) % p
        if first >= size:
            continue
        at = slice(first, size, p)
        seg = n[at]
        e = np.zeros(seg.shape[0], dtype=np.int64)
        q = p
        while q <= hi:
            e += seg % q == 0
            q *= p
        rest[at] //= np.power(p, e)
        value[at] *= table[e]
    value[rest > 1] *= table[1]
    if int(value.max()) * size >= 1 << 62:
        raise OverflowError("reference window sum would leave the int64 range")
    return int(np.sum(value, dtype=np.int64))


# ---------------------------------------------------------------------------
# far_rows: closed forms of cor7 and cor8(1)
# ---------------------------------------------------------------------------


def cor7_value(fac: list[tuple[int, int]]) -> float:
    """2^(omega(n) - 1) log rad(n), zero at n = 1."""
    if not fac:
        return 0.0
    return 2.0 ** (len(fac) - 1) * math.fsum(math.log(p) for p, _ in fac)


def cor8_1_value(fac: list[tuple[int, int]]) -> float:
    """Sum over ab | n of log a log b.

    For fixed a the inner sum over b | n/a of log b is tau(n/a) log(n/a) / 2,
    pairing b with (n/a)/b.
    """
    n = math.prod(p**e for p, e in fac)
    terms = []
    for exps in itertools.product(*(range(e + 1) for _, e in fac)):
        a = math.prod(p**i for (p, _), i in zip(fac, exps))
        tau_rest = math.prod(e - i + 1 for (_, e), i in zip(fac, exps))
        terms.append(math.log(a) * tau_rest * math.log(n // a) / 2.0)
    return math.fsum(terms)


def far_window_sum(value_fn, lo: int, hi: int) -> float:
    primes = primes_to(math.isqrt(hi)).tolist()
    return math.fsum(value_fn(factor_trial(n, primes)) for n in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# hyperbola_cold: (f * g) over a window, from the spec's structure
# ---------------------------------------------------------------------------


def _local(spec, e: int):
    """Value at p^e of a spec whose prime-power values depend on e alone, else None."""
    kind, k = spec.kind, spec.param
    if kind == "one":
        return 1
    if kind == "identity_at_1":
        return 1 if e == 0 else 0
    if kind == "mobius":
        return (1, -1, 0)[min(e, 2)]
    if kind == "mu_k":
        return 1 if e < k else 0
    if kind == "tau_m":
        return comb(e + k - 1, k - 1)
    if kind == "tau_kfree":
        return min(e, k - 1) + 1
    if kind == "two_pow_omega":
        return 2 if e else 1
    if kind == "three_pow_omega":
        return 3 if e else 1
    if kind in ("convolve", "pointwise"):
        a, b = spec.children
        if _local(a, 0) is None or _local(b, 0) is None:
            return None
        if kind == "pointwise":
            return _local(a, e) * _local(b, e)
        return sum(_local(a, i) * _local(b, e - i) for i in range(e + 1))
    return None


class SpecEvaluator:
    """Values of a spec tree at n <= N from a smallest-prime-factor table."""

    def __init__(self, N: int) -> None:
        self.spf = smallest_factor_table(N)
        self._memo: dict[tuple[str, int], object] = {}

    def value(self, spec, n: int):
        key = (spec.key, n)
        v = self._memo.get(key)
        if v is None:
            v = self._eval(spec, n)
            self._memo[key] = v
        return v

    def _eval(self, spec, n: int):
        fac = factor_with(self.spf, n)
        if _local(spec, 0) is not None:
            return math.prod(_local(spec, e) for _, e in fac)
        kind = spec.kind
        if kind == "log_pow":
            return math.log(n) ** spec.param
        if kind == "pointwise":
            a, b = spec.children
            return self.value(a, n) * self.value(b, n)
        if kind == "convolve":
            a, b = spec.children
            parts = [self.value(a, d) * self.value(b, n // d) for d in divisors_of(fac)]
            return sum(parts) if isinstance(parts[0], int) else math.fsum(parts)
        raise ValueError(f"no reference evaluator for spec {spec.key}")

    def convolution_window_sum(self, f, g, x: int, y: int):
        """Sum over x < n <= x+y of (f * g)(n) = sum over d | n of f(d) g(n/d)."""
        vals = []
        for n in range(x + 1, x + y + 1):
            divs = divisors_of(factor_with(self.spf, n))
            parts = [self.value(f, d) * self.value(g, n // d) for d in divs]
            vals.append(sum(parts) if isinstance(parts[0], int) else math.fsum(parts))
        return sum(vals) if isinstance(vals[0], int) else math.fsum(vals)


# ---------------------------------------------------------------------------
# delta_windows: Hooley's Delta_2 and Delta_3
# ---------------------------------------------------------------------------


def delta2(divs: list[int]) -> int:
    """Most divisors in one window [a, e a), anchored at each divisor a in turn."""
    return max(bisect_left(divs, a * math.e) - i for i, a in enumerate(divs))


def delta3(n: int, divs: list[int]) -> int:
    """Most pairs (d1, d2) with d1 d2 | n, d1 in [a1, e a1), d2 in [a2, e a2).

    Exhaustive over every pair of divisor anchors (a1, a2).  M[i, j] marks
    d_i d_j | n; each anchor pair's count is a rectangle sum of M.
    """
    d = np.array(divs, dtype=np.int64)
    M = (n % np.outer(d, d) == 0).astype(np.int64)
    P = np.zeros((len(d) + 1, len(d) + 1), dtype=np.int64)
    P[1:, 1:] = M.cumsum(0).cumsum(1)
    lo = np.arange(len(d))
    hi = np.array([bisect_left(divs, a * math.e) for a in divs])
    counts = (
        P[hi[:, None], hi[None, :]]
        - P[lo[:, None], hi[None, :]]
        - P[hi[:, None], lo[None, :]]
        + P[lo[:, None], lo[None, :]]
    )
    return int(counts.max())
