"""Exact evaluation of arithmetic functions, pointwise and on integer ranges.

Every route evaluates the normal form :func:`hyplab.specs.base_form`.  Values
on a range [lo, hi] come from one recursion over the spec tree.  Integer specs
(exponent-only prime-power values) go through the vectorized multiplicative
sieve, one sweep per prime p <= sqrt(hi); ``log_pow`` is one numpy expression;
a real convolution runs one sweep, a strided slice per d <= sqrt(hi) and the
larger d by cofactor from high to low.

Two range routes share that recursion.  A prefix table [1, N] sweeps whole
child arrays and is cached; windows ending at or below ``PREFIX_WINDOW_MAX``
are sliced from it.  A far window takes the child windows it needs from the
recursion, at a cost that grows like y log x + x^(3/4), not like x.  The point
route evaluates one argument from its factorization.  Every route adds a
convolution's terms in increasing d over its first factor and computes log
powers with the same numpy expression, so a real value does not depend on its
route, bit for bit.  Integer work is exact: the int64 fast paths carry bound
guards and escalate to Python integers rather than wrap around.
"""

from __future__ import annotations

import functools
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
# multiplicative window sieve
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
# range recursion, convolution sweep and the prefix-table cache
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


def _conv_sweep(out, lo, hi, f_at, g_at) -> None:
    """Add the values of f * g on [lo, hi] into the zeroed array ``out``.

    ``f_at(a, b)`` and ``g_at(a, b)`` give f and g on [a, b].  Each out[n]
    adds f(d) g(n/d) in increasing d, so a value does not depend on the
    window it is computed in: one strided slice per d <= sqrt(hi), then
    cofactors j from high to low (for a fixed n, a larger j is a smaller d),
    the d-range of each j in chunks of _CONV_BLOCK.
    """
    S = math.isqrt(hi)
    fs = f_at(1, S)
    ds = np.arange(1, S + 1)
    # only the d with f(d) != 0 and a multiple in [lo, hi]
    for d in ds[(fs != 0) & ((lo - 1) // ds < hi // ds)].tolist():
        j0 = (lo - 1) // d + 1
        out[d * j0 - lo :: d] += fs[d - 1] * g_at(j0, hi // d)
    J = hi // (S + 1)
    if J == 0:
        return
    gs = g_at(1, J)
    js = np.arange(J, 0, -1)
    for j in js[(gs[::-1] != 0) & (np.maximum((lo - 1) // js, S) < hi // js)].tolist():
        gj = gs[j - 1]
        for a in range(max(S, (lo - 1) // j) + 1, hi // j + 1, _CONV_BLOCK):
            b = min(a + _CONV_BLOCK - 1, hi // j)
            out[a * j - lo : b * j - lo + 1 : j] += f_at(a, b) * gj


def _conv_prefix_values(fv: np.ndarray, gv: np.ndarray, N: int) -> np.ndarray:
    """Prefix values of the Dirichlet convolution of two prefix value arrays.

    The array form of :func:`_conv_sweep` on [1, N].  Integer sums that could
    reach the int64 guard bound are accumulated in exact Python integers.
    """
    if fv.dtype.kind == "i" and gv.dtype.kind == "i":
        top = int(np.abs(fv[1:]).max(initial=0)) * int(np.abs(gv[1:]).max(initial=0))
        if top * N >= _INT64_SAFE:
            fv, gv = fv.astype(object), gv.astype(object)
    out = np.zeros(N + 1, dtype=np.result_type(fv, gv))
    _conv_sweep(out[1:], 1, N, lambda a, b: fv[a : b + 1], lambda a, b: gv[a : b + 1])
    return out


def _window_values(spec: FuncSpec, lo: int, hi: int) -> np.ndarray:
    """Values of a base-form spec on [lo, hi].

    A convolution on a prefix (lo = 1) evaluates each child once on [1, hi]
    and sweeps slices of those arrays; on a far window it takes each child
    window the sweep asks for from this recursion.
    """
    if prime_power_locals(spec) is not None:
        return _mult_window_values(spec, lo, hi)
    kind = spec.kind
    if kind == "log_pow":
        return np.log(np.arange(lo, hi + 1, dtype=np.float64)) ** spec.param
    if kind == "pointwise":
        f, g = spec.children
        return _real_values(f, lo, hi) * _real_values(g, lo, hi)
    if kind != "convolve":
        raise InvalidSpecError(f"no window engine for spec kind {kind!r}")
    f_at, g_at = (functools.partial(_real_values, c) for c in spec.children)
    if lo == 1:
        fv, gv = f_at(1, hi), g_at(1, hi)
        f_at, g_at = (lambda a, b: fv[a - 1 : b]), (lambda a, b: gv[a - 1 : b])
    # integer convolutions have prime-power locals, so this one is real
    out = np.zeros(hi - lo + 1, dtype=np.float64)
    _conv_sweep(out, lo, hi, f_at, g_at)
    return out


def _real_values(spec: FuncSpec, lo: int, hi: int) -> np.ndarray:
    """A child of a real node: exact big-int values become floats, as at a point."""
    v = _window_values(spec, lo, hi)
    return v.astype(np.float64) if v.dtype == object else v


def _range_values(spec: FuncSpec, lo: int, hi: int) -> np.ndarray:
    return _window_values(base_form(spec), lo, hi)


def _table_values(spec: FuncSpec, lo: int, hi: int) -> np.ndarray:
    return prefix_values(spec, hi)[lo : hi + 1]


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
    w = _range_values(spec, 1, N)
    values = np.concatenate((np.zeros(1, dtype=w.dtype), w))
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
# point route: recursion from the factorization
# ---------------------------------------------------------------------------


def _divisor_triples(fac: list[tuple[int, int]]):
    """(d, fac_d, fac_{n/d}) for every divisor d of n, in increasing d."""
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
    items.sort(key=lambda t: t[0])
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
        # the window engine's expression: math.log and numpy's log differ
        return float((np.log(np.array([n], dtype=np.float64)) ** spec.param)[0])
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

    Returns (tag, fn); the tag names the route and enters the disk-cache key.
    A far window ("n") needs arrays of isqrt(hi) entries, so it is refused here,
    before any allocation, when those would exceed the segment cap.
    """
    if prime_power_locals(spec) is not None:
        return "m", _mult_window_values
    kind = spec.kind
    if kind == "log_pow":
        return "l", _range_values
    if kind == "pointwise":
        ta, _ = _choose_engine(spec.children[0], lo, hi)
        tb, _ = _choose_engine(spec.children[1], lo, hi)
        return f"p({ta},{tb})", _range_values
    if lo == 1 or hi <= PREFIX_WINDOW_MAX:
        return "x", _table_values
    if math.isqrt(hi) > SEGMENT_CAP:
        raise SegmentCapError(f"far window up to {hi} exceeds the segment cap {SEGMENT_CAP}")
    return "n", _range_values


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
    segs = (
        sieve_range(spec, lo, min(lo + cap - 1, x + y), segment_cap=cap, _engine=pair).values
        for lo in range(x + 1, x + y + 1, cap)
    )
    if spec.integer_valued:
        return sum(_exact_int_sum(v) for v in segs)
    return math.fsum(v for seg in segs for v in seg.tolist())


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
