"""Exact evaluation of arithmetic functions, pointwise and on integer ranges.

Three engines cover every spec:

1.  Vectorized multiplicative sieve.  For specs whose prime-power values
    depend on the exponent alone (all integer families and their convolution
    or pointwise closures), a window (lo, hi] is swept once per prime
    p <= sqrt(hi); extracting the exponent of p at each multiple multiplies
    a single local value into the output slot.  Leftover cofactors above
    sqrt(hi) are prime and contribute the exponent-1 local value.

2.  Prefix divisor loops.  Convolutions on a prefix [1, N] are built by the
    classical O(N log N) sieve-of-divisors accumulation.  Windows that sit
    below a configurable bound reuse a cached prefix table.

3.  Per-point recursion.  Isolated arguments and far-out windows of
    non-multiplicative specs are evaluated from the factorization, with
    divisors enumerated alongside their exponent vectors so no divisor is
    ever re-factorized.

Each engine evaluates :func:`hyplab.specs.base_form` of its spec, in which the
von Mangoldt shorthands are convolutions of the other kinds.

Integer work is exact everywhere: the int64 fast paths carry explicit bound
guards and escalate to Python integers rather than ever wrapping around.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, PreconditionError, SegmentCapError
from .specs import (
    FuncSpec,
    MAX_N,
    base_form,
    convolve,
    dirichlet_inverse,
    mobius,
    prime_power_locals,
)

__all__ = [
    "ValueTable",
    "SEGMENT_CAP",
    "PREFIX_WINDOW_MAX",
    "primes_upto",
    "factorize",
    "evaluate_point",
    "sieve_range",
    "dirichlet_convolve_point",
    "dirichlet_inverse_prefix",
    "eratosthenes_transform",
    "von_mangoldt_attached",
    "short_sum_bruteforce",
    "prefix_values",
    "prefix_sums",
    "set_segment_cache",
    "clear_table_cache",
]

#: Default cap on the width of a single sieved table.
SEGMENT_CAP = 1 << 24

#: Windows of divisor-loop specs fall back to a cached prefix table when the
#: window's upper end does not exceed this bound.
PREFIX_WINDOW_MAX = 4_000_000

#: int64 accumulation guard; sums proven below this stay on the numpy path.
_INT64_SAFE = 1 << 62

#: Divisors per block of the large-d prefix convolution; bounds its temporaries.
_CONV_BLOCK = 1 << 14


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

_prime_lock = threading.Lock()
_prime_limit = 0
_prime_array = np.empty(0, dtype=np.int64)


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (shared, grow-on-demand cache)."""
    global _prime_limit, _prime_array
    if n <= 1:
        return np.empty(0, dtype=np.int64)
    with _prime_lock:
        if n > _prime_limit:
            limit = max(n, 2 * _prime_limit, 1 << 16)
            sieve = np.ones(limit + 1, dtype=bool)
            sieve[:2] = False
            for p in range(2, math.isqrt(limit) + 1):
                if sieve[p]:
                    sieve[p * p :: p] = False
            _prime_array = np.nonzero(sieve)[0].astype(np.int64)
            _prime_limit = limit
        arr = _prime_array
    return arr[: np.searchsorted(arr, n, side="right")]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, sorted by prime."""
    if n < 1:
        raise PreconditionError(f"factorize requires n >= 1, got {n}")
    fac: list[tuple[int, int]] = []
    m = n
    for p in primes_upto(math.isqrt(n)):
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fac.append((p, e))
    if m > 1:
        fac.append((m, 1))
    return fac


# ---------------------------------------------------------------------------
# value tables
# ---------------------------------------------------------------------------


@dataclass
class ValueTable:
    """Values of one spec on a contiguous range [lo, hi].

    ``values[i]`` equals the spec at ``lo + i``.  Tables are immutable by
    convention once returned; sharing them across threads is safe.
    """

    spec: FuncSpec
    lo: int
    hi: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (1 <= self.lo <= self.hi):
            raise PreconditionError(
                f"table range must satisfy 1 <= lo <= hi, got [{self.lo}, {self.hi}]"
            )
        if len(self.values) != self.hi - self.lo + 1:
            raise PreconditionError("table length does not match its range")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def value_at(self, n: int):
        if not (self.lo <= n <= self.hi):
            raise PreconditionError(f"{n} outside table range [{self.lo}, {self.hi}]")
        v = self.values[n - self.lo]
        return int(v) if self.spec.integer_valued else v


# optional on-disk segment cache, installed by the CLI
_segment_cache = None


def set_segment_cache(cache) -> None:
    """Install (or clear, with None) an on-disk cache consulted by sieve_range."""
    global _segment_cache
    _segment_cache = cache


# ---------------------------------------------------------------------------
# engine 1: vectorized multiplicative window sieve
# ---------------------------------------------------------------------------


def _mult_window_values(spec: FuncSpec, lo: int, hi: int) -> np.ndarray:
    # exponents above log2(hi) cannot occur inside the window, so the local
    # table stays small even when deep values grow (Dirichlet inverses do)
    locals_ = prime_power_locals(spec, int(hi).bit_length())
    if max(abs(v) for v in locals_) < _INT64_SAFE:
        L = np.asarray(locals_, dtype=np.int64)
    else:
        L = np.asarray(locals_, dtype=object)
    size = hi - lo + 1
    out = np.ones(size, dtype=L.dtype)
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    for p in primes_upto(math.isqrt(hi)):
        p = int(p)
        start = ((lo + p - 1) // p) * p
        if start > hi:
            continue
        if p >= size:
            # at most one multiple inside the window; stay scalar
            i = start - lo
            r = int(rem[i])
            e = 0
            while r % p == 0:
                r //= p
                e += 1
            rem[i] = r
            out[i] *= L[e]
            continue
        sl = slice(start - lo, size, p)
        r = rem[sl]  # strided view, divisions write through
        e = np.ones(r.shape[0], dtype=np.int64)
        r //= p
        cur = np.nonzero(r % p == 0)[0]
        while cur.size:
            r[cur] //= p
            e[cur] += 1
            cur = cur[r[cur] % p == 0]
        out[sl] *= L[e]
    big = rem > 1
    if big.any():
        out[big] *= L[1]
    return out


# ---------------------------------------------------------------------------
# engine 2: prefix divisor loops + table cache
# ---------------------------------------------------------------------------

_table_lock = threading.Lock()
_table_cache: dict[str, dict] = {}
_TABLE_CACHE_MAX = 12


def clear_table_cache() -> None:
    with _table_lock:
        _table_cache.clear()


def _checked_int_cumsum(vals: np.ndarray) -> np.ndarray:
    bound = int(np.abs(vals).max(initial=0)) * len(vals)
    if bound < _INT64_SAFE:
        return np.cumsum(vals, dtype=np.int64)
    # escalate to exact big-int accumulation
    out = np.empty(len(vals), dtype=object)
    acc = 0
    for i, v in enumerate(vals):
        acc += int(v)
        out[i] = acc
    return out


def _conv_prefix_values(fv: np.ndarray, gv: np.ndarray, N: int) -> np.ndarray:
    """Prefix values of the Dirichlet convolution of two prefix value arrays.

    Each out[m] adds f(d) g(m/d) in increasing d, so float results do not
    depend on the route: one strided slice per d <= sqrt(N), then blocks of
    larger d swept by cofactor j from high to low (for a fixed m, a larger j
    is a smaller d).
    """
    if np.count_nonzero(fv[1:]) > np.count_nonzero(gv[1:]):
        fv, gv = gv, fv
    isint = fv.dtype.kind == "i" and gv.dtype.kind == "i"
    out = np.zeros(N + 1, dtype=np.int64 if isint else np.float64)
    S = math.isqrt(N)
    nz = np.flatnonzero(fv[1:])
    nz += 1
    split = np.searchsorted(nz, S, side="right")
    for d in nz[:split].tolist():
        out[d::d] += fv[d] * gv[1 : N // d + 1]
    for lo in range(split, nz.size, _CONV_BLOCK):
        big = nz[lo : lo + _CONV_BLOCK]
        for j in range(N // int(big[0]), 0, -1):
            ds = big[: np.searchsorted(big, N // j, side="right")]
            out[ds * j] += fv[ds] * gv[j]
    return out


def _build_prefix_values(spec: FuncSpec, N: int) -> np.ndarray:
    """Value array v with v[0] = 0 and v[n] = spec(n) for 1 <= n <= N."""
    spec = base_form(spec)
    if prime_power_locals(spec) is not None:
        w = _mult_window_values(spec, 1, N)
        v = np.zeros(N + 1, dtype=w.dtype)
        v[1:] = w
        return v
    kind = spec.kind
    if kind == "log_pow":
        v = np.zeros(N + 1, dtype=np.float64)
        v[1:] = np.log(np.arange(1, N + 1, dtype=np.float64)) ** spec.param
        return v
    if kind == "pointwise":
        a = _build_prefix_values(spec.children[0], N)
        b = _build_prefix_values(spec.children[1], N)
        return a * b
    if kind == "convolve":
        a = _build_prefix_values(spec.children[0], N)
        b = _build_prefix_values(spec.children[1], N)
        return _conv_prefix_values(a, b, N)
    raise InvalidSpecError(f"no prefix engine for spec kind {kind!r}")


def _prefix_entry(spec: FuncSpec, N: int) -> dict:
    key = spec.key
    with _table_lock:
        entry = _table_cache.get(key)
        if entry is not None and entry["N"] >= N:
            # refresh LRU position
            _table_cache.pop(key)
            _table_cache[key] = entry
            return entry
        if entry is not None:
            # amortize growing access patterns; per-index values do not depend
            # on the build size, so overshooting is invisible to callers
            N = max(N, 2 * entry["N"])
    values = _build_prefix_values(spec, N)
    if values.dtype.kind == "i":
        sums = _checked_int_cumsum(values)
    else:
        sums = np.cumsum(values)
    entry = {"N": N, "values": values, "sums": sums}
    with _table_lock:
        prev = _table_cache.get(key)
        if prev is None or prev["N"] < N:
            _table_cache.pop(key, None)
            _table_cache[key] = entry
            while len(_table_cache) > _TABLE_CACHE_MAX:
                _table_cache.pop(next(iter(_table_cache)))
        else:
            entry = prev
    return entry


def prefix_values(spec: FuncSpec, N: int) -> np.ndarray:
    """Array v with v[n] = spec(n) for 0 <= n <= N (v[0] = 0), cached."""
    return _prefix_entry(spec, N)["values"][: N + 1]


def prefix_sums(spec: FuncSpec, N: int) -> np.ndarray:
    """Array S with S[n] = sum of spec over [1, n], S[0] = 0, cached.

    The underlying value array carries a zero at index 0, so its cumulative
    sum is already the prefix-sum array and can be shared as a view.
    """
    return _prefix_entry(spec, N)["sums"][: N + 1]


# ---------------------------------------------------------------------------
# engine 3: per-point recursion from the factorization
# ---------------------------------------------------------------------------


def _divisor_triples(fac: list[tuple[int, int]]):
    """(d, fac_d, fac_{n/d}) for every divisor d of n, in a fixed order."""
    items = [(1, [], [])]
    for p, e in fac:
        grown = []
        for d, df, cf in items:
            q = 1
            for j in range(1, e + 1):
                q *= p
                rest = cf + [(p, e - j)] if j < e else cf[:]
                grown.append((d * q, df + [(p, j)], rest))
            cf.append((p, e))
        items.extend(grown)
    return items


def _eval_fac(spec: FuncSpec, n: int, fac: list[tuple[int, int]]):
    locals_ = prime_power_locals(spec)
    if locals_ is not None:
        out = 1
        for _, e in fac:
            out *= locals_[e]
            if out == 0:
                return 0
        return out
    kind = spec.kind
    if kind == "log_pow":
        return math.log(n) ** spec.param
    if kind == "pointwise":
        return _eval_fac(spec.children[0], n, fac) * _eval_fac(spec.children[1], n, fac)
    if kind == "convolve":
        # integer convolutions have prime-power locals, so this sum is real
        f, g = spec.children
        total = 0.0
        for d, dfac, cfac in _divisor_triples(fac):
            fd = _eval_fac(f, d, dfac)
            if fd:
                total += fd * _eval_fac(g, n // d, cfac)
        return total
    raise InvalidSpecError(f"cannot evaluate spec kind {kind!r}")


def evaluate_point(spec: FuncSpec, n: int):
    """Exact value of the spec at n (int for integer-valued specs)."""
    if not (1 <= n <= MAX_N):
        raise PreconditionError(f"evaluate_point requires 1 <= n <= 2^63-1, got {n}")
    return _eval_fac(base_form(spec), n, factorize(n))


# ---------------------------------------------------------------------------
# window dispatch
# ---------------------------------------------------------------------------


def _choose_engine(spec: FuncSpec, lo: int, hi: int):
    """Pick the window engine once, based on the full requested range.

    Returns (tag, fn); the tag names the algorithm and enters the disk-cache
    key so cached segments are only reused by the exact same numeric path.
    """
    if prime_power_locals(spec) is not None:
        return "m", _mult_window_values
    kind = spec.kind
    if kind == "log_pow":
        k = spec.param

        def _log_engine(s, a, b):
            return np.log(np.arange(a, b + 1, dtype=np.float64)) ** k

        return "l", _log_engine
    if kind == "pointwise":
        ta, ea = _choose_engine(spec.children[0], lo, hi)
        tb, eb = _choose_engine(spec.children[1], lo, hi)
        fa, fb = spec.children

        def _pw_engine(s, a, b):
            return ea(fa, a, b) * eb(fb, a, b)

        return f"p({ta},{tb})", _pw_engine
    # divisor-loop specs: reuse a prefix table when the window sits low enough
    if lo == 1 or hi <= PREFIX_WINDOW_MAX:

        def _prefix_engine(s, a, b):
            return prefix_values(s, b)[a : b + 1]

        return "x", _prefix_engine

    def _point_engine(s, a, b):
        # integer specs all have prime-power locals, so s is real here
        s = base_form(s)
        facs = _factor_window(a, b)
        out = np.empty(b - a + 1, dtype=np.float64)
        for i, fac in enumerate(facs):
            out[i] = _eval_fac(s, a + i, fac)
        return out

    return "n", _point_engine


def _factor_window(lo: int, hi: int) -> list[list[tuple[int, int]]]:
    """Factorizations of every n in [lo, hi] via one shared prime sweep."""
    size = hi - lo + 1
    rem = list(range(lo, hi + 1))
    facs: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for p in primes_upto(math.isqrt(hi)):
        p = int(p)
        start = ((lo + p - 1) // p) * p
        for m in range(start, hi + 1, p):
            i = m - lo
            r = rem[i]
            e = 0
            while r % p == 0:
                r //= p
                e += 1
            rem[i] = r
            facs[i].append((p, e))
    for i, r in enumerate(rem):
        if r > 1:
            facs[i].append((r, 1))
    return facs


def sieve_range(
    spec: FuncSpec,
    lo: int,
    hi: int,
    *,
    segment_cap: int | None = None,
    _engine=None,
) -> ValueTable:
    """Exact table of the spec on [lo, hi]; identical to pointwise evaluation."""
    cap = SEGMENT_CAP if segment_cap is None else segment_cap
    if not (1 <= lo <= hi):
        raise PreconditionError(f"sieve_range requires 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > MAX_N:
        raise PreconditionError(f"sieve_range requires hi <= 2^63-1, got {hi}")
    if hi - lo + 1 > cap:
        raise SegmentCapError(
            f"window of {hi - lo + 1} entries exceeds the segment cap {cap}"
        )
    tag, engine = _engine if _engine is not None else _choose_engine(spec, lo, hi)
    if _segment_cache is not None:
        cached = _segment_cache.load(spec, tag, lo, hi)
        if cached is not None:
            return ValueTable(spec, lo, hi, cached)
    vals = engine(spec, lo, hi)
    if _segment_cache is not None and vals.dtype != object:
        _segment_cache.store(spec, tag, lo, hi, vals)
    return ValueTable(spec, lo, hi, vals)


def _exact_int_sum(vals: np.ndarray) -> int:
    if vals.dtype == object:
        return int(sum(vals))
    bound = int(np.abs(vals).max(initial=0)) * len(vals)
    if bound < _INT64_SAFE:
        return int(np.sum(vals, dtype=np.int64))
    return sum(int(v) for v in vals)


def short_sum_bruteforce(
    spec: FuncSpec, x: int, y: int, *, segment_cap: int | None = None
):
    """Exact sum of the spec over the window (x, x+y].

    x = 0 sums the prefix [1, y].  Windows wider than the segment cap are
    processed as consecutive segments; the reduction is exact on the integer
    path and grouping-independent (one global compensated sum) on the real
    path, so the result does not depend on the cap.
    """
    cap = SEGMENT_CAP if segment_cap is None else segment_cap
    if x < 0 or y < 0:
        raise PreconditionError(f"short sum requires x >= 0 and y >= 0, got {x}, {y}")
    if x + y > MAX_N:
        raise PreconditionError("short sum requires x + y <= 2^63-1")
    if y == 0:
        return 0 if spec.integer_valued else 0.0
    pair = _choose_engine(spec, x + 1, x + y)
    if spec.integer_valued:
        total = 0
        lo = x + 1
        while lo <= x + y:
            hi = min(lo + cap - 1, x + y)
            seg = sieve_range(spec, lo, hi, segment_cap=cap, _engine=pair)
            total += _exact_int_sum(seg.values)
            lo = hi + 1
        return total

    def _elements():
        lo = x + 1
        while lo <= x + y:
            hi = min(lo + cap - 1, x + y)
            seg = sieve_range(spec, lo, hi, segment_cap=cap, _engine=pair)
            yield from seg.values.tolist()
            lo = hi + 1

    return math.fsum(_elements())


# ---------------------------------------------------------------------------
# named operations on top of the engines
# ---------------------------------------------------------------------------


def dirichlet_convolve_point(f: FuncSpec, g: FuncSpec, n: int):
    """(f * g)(n) = sum over d | n of f(d) g(n/d), evaluated directly."""
    return evaluate_point(convolve(f, g), n)


def dirichlet_inverse_prefix(
    g: FuncSpec, N: int, *, segment_cap: int | None = None
) -> ValueTable:
    """Table of the convolution inverse of g on [1, N].

    Exact integers: every g with g(1) != 0 is integer-valued with g(1) = 1.
    """
    cap = SEGMENT_CAP if segment_cap is None else segment_cap
    inv = dirichlet_inverse(g)  # validates g(1) != 0
    if N > cap:
        raise SegmentCapError(f"inverse table of {N} entries exceeds the cap {cap}")
    return sieve_range(inv, 1, N, segment_cap=cap)


def eratosthenes_transform(
    F: FuncSpec, N: int, *, segment_cap: int | None = None
) -> ValueTable:
    """Table of F * mobius on [1, N]; convolving back with `one` recovers F."""
    return sieve_range(convolve(F, mobius()), 1, N, segment_cap=segment_cap)


def von_mangoldt_attached(
    g: FuncSpec, N: int, *, segment_cap: int | None = None
) -> ValueTable:
    """Table of the von Mangoldt function attached to g on [1, N]."""
    from .specs import lambda_attached  # validates g(1) != 0

    return sieve_range(lambda_attached(g), 1, N, segment_cap=segment_cap)
