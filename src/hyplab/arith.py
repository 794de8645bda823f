"""Exact evaluation of arithmetic functions, pointwise and on integer ranges.

Every route evaluates the normal form :func:`hyplab.specs.base_form`.  Values
on a range [lo, hi] come from one recursion over the spec tree.  Integer specs
(exponent-only prime-power values) go through the vectorized multiplicative
sieve over the primes p <= sqrt(hi): a strided slice per prime with many
multiples in the window, the other primes as batches of (prime, multiple)
pairs, and a scalar step per prime with at most one multiple.  Each prime
power adds one int32 step to a signature code per multiple: in its high bits
the counts c1 + 16 c2 + 256 c3 of the primes dividing n exactly once, twice
and three times, in its low 12 bits a rounded log weight sum, sum of
e round(8 log2 p), offset by a threshold per binade of n.  The weight tells,
with a margin the rounding cannot cross, whether a prime above sqrt(hi) is
left in n (the proof is at :func:`_mult_window_values`); where it is, the low
bits carry one into c1.  So code >> 12 indexes a table of exact products
L[1]^c1 L[2]^c2 L[3]^c3, and the rare exponents >= 4 are multiplied in after
that one gather.  A leaf, ``one`` or ``log_pow``, is one numpy expression
at any points.  A real convolution runs one sweep over the pairs (d, j) with
dj in the window: d <= sqrt(hi) first, then the larger d by cofactor j from
high to low.

Three rules place the work of a convolution.  The route rule: a window is
computed on its own, so a window (x, x+y] costs about y + sqrt(x) work at any
x; a spec's cached prefix table [1, N] answers prefix requests only
(:func:`prefix_values`, :func:`prefix_sums` and the hyperbola legs).  A table
that must grow is built again, in one piece, at twice its size up to
``PREFIX_WINDOW_MAX``.  No table is built past that cap: a request past it
raises ``SegmentCapError`` before anything is allocated.  The shape rule: on a
window at least as long as its offset (2 (lo - 1) <= hi, as every prefix table
and dyadic block (N, 2N] is) the children are evaluated once as arrays from 1
and the sweep takes a strided slice per d and per j; a far window gathers its
pairs by dyadic blocks of d and of j, [D0, 2 D0), and adds each batch of at
most _CONV_BLOCK pairs with one ``np.add.at``, with the child values taken at
the gathered points.  The cover
rule: a far block of n child windows evaluates its child once, on the cover of
those windows, when the cover has at most n isqrt(hi // D0) entries (the cost
of n child sweeps) and at most max(2 _CONV_BLOCK, y) for a window of y
entries.  A leaf child takes no cover: its expression is evaluated at the
gathered points themselves.  Any other child recurses on its windows, one
per run of consecutive points.  A cover is freed when its block is done, so at
most one is alive per sweep loop and per recursion level, each of at most
max(2 _CONV_BLOCK, y) entries.

The point route evaluates one argument from its factorization.  Every route
adds a convolution's terms in increasing d over its first factor
(``np.add.at`` applies a repeated index in array order) and takes leaf
values from the same numpy expression, so a real value does not depend on its
route or on the window, cover or batch it is computed in, bit for bit.  Integer
work is exact: the int64 fast paths carry bound guards and escalate to Python
integers rather than wrap around.  An integer spec's arrays are int64 or object
(a table's running sums int32 while they stay below 2^30) and a real spec's
are float64, so a sum reads its exactness off the dtypes.
"""

from __future__ import annotations

import functools
import itertools
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

#: Cap on the width of a single sieved table and on the prime sieve.
SEGMENT_CAP = 1 << 24

#: Largest N of a cached prefix table [1, N]; a prefix request past it is
#: refused.  Windows never read these tables.
PREFIX_WINDOW_MAX = 4_000_000

#: int64 accumulation guard; sums proven below this stay on the numpy path.
_INT64_SAFE = 1 << 62

#: Entries per chunk of the near convolution sweep, (d, j) pairs per batch of
#: the far sweep and (prime, multiple) pairs per batch of the window sieve;
#: bounds the temporaries of all three.
_CONV_BLOCK = 1 << 14


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

_prime_lock = threading.Lock()
_prime_limit = 0
_prime_array = np.empty(0, dtype=np.int64)


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (shared, grow-on-demand cache).

    A sieve past ``SEGMENT_CAP`` is refused before anything is allocated, and
    the cache never grows past it.
    """
    global _prime_limit, _prime_array
    if n <= 1:
        return np.empty(0, dtype=np.int64)
    if n > SEGMENT_CAP:
        raise SegmentCapError(f"prime sieve up to {n} exceeds the segment cap {SEGMENT_CAP}")
    with _prime_lock:
        if n > _prime_limit:
            limit = max(n, min(max(2 * _prime_limit, 1 << 16), SEGMENT_CAP))
            sieve = np.ones(limit + 1, dtype=bool)
            sieve[:2] = False
            for p in range(2, math.isqrt(limit) + 1):
                if sieve[p]:
                    sieve[p * p :: p] = False
            _prime_array = np.nonzero(sieve)[0].astype(np.int64)
            _prime_array.flags.writeable = False
            _prime_limit = limit
        arr = _prime_array
    return arr[: np.searchsorted(arr, n, side="right")]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, sorted by prime.

    Past n = SEGMENT_CAP^2 the primes to try would exceed the cap of
    :func:`primes_upto`, which raises ``SegmentCapError``.
    """
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


# optional on-disk cache of window sums, installed by the CLI
_segment_cache = None


def set_segment_cache(cache) -> None:
    """Install (or clear, with None) the disk cache of short_sum_bruteforce's sums."""
    global _segment_cache
    _segment_cache = cache


# ---------------------------------------------------------------------------
# multiplicative window sieve
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _local_table(spec: FuncSpec, bits: int) -> np.ndarray:
    """Prime-power values of ``spec`` for exponents 0 .. bits, in the sieve's dtype.

    int64 when no value of the spec on [1, 2^bits) reaches the int64 guard, so
    neither a local nor a product of them can wrap; exact Python ints otherwise.
    """
    # exponents above bits cannot occur below 2^bits, so the table stays
    # small even when deep values grow (Dirichlet inverses do)
    locals_ = prime_power_locals(spec, bits)
    small = primes_upto(64).tolist()

    def largest(i: int, top: int, emax: int) -> int:
        # max |f(n)| over n <= top whose exponents on small[i], small[i+1], ..
        # do not increase and stay <= emax; moving a prime power to a smaller
        # prime keeps n <= top and f(n), so this is the max over all n <= top
        best, q = 1, 1
        for e in range(1, emax + 1):
            q *= small[i]
            if q > top:
                break
            if locals_[e]:
                best = max(best, abs(locals_[e]) * largest(i + 1, top // q, e))
        return best

    if max(map(abs, locals_)) < _INT64_SAFE and largest(0, (1 << bits) - 1, bits) < _INT64_SAFE:
        return np.asarray(locals_, dtype=np.int64)
    return np.asarray(locals_, dtype=object)


@functools.lru_cache(maxsize=256)
def _signature_table(spec: FuncSpec, bits: int) -> np.ndarray:
    """T[c1 + 16 c2 + 256 c3] = L[1]^c1 L[2]^c2 L[3]^c3, in ``_local_table``'s dtype.

    c_e counts the primes that divide n exactly e times.  An entry whose
    signature no n < 2^bits has stays zero (the least n of a signature puts
    the cubes on the smallest primes, then the squares, then the first
    powers), so every other entry is a value of the spec below 2^bits and an
    int64 table cannot wrap.  No n < 2^63 has 16 prime factors, so
    c1 + c2 + c3 <= 15 and each count fits its 4 bits.
    """
    dtype = _local_table(spec, bits).dtype
    L = prime_power_locals(spec, 3)
    small = primes_upto(64).tolist()
    vals = {}
    for c3 in range(16):
        for c2 in range(16 - c3):
            n = math.prod(small[:c3]) ** 3 * math.prod(small[c3 : c3 + c2]) ** 2
            for c1 in range(16 - c3 - c2):
                if n >> bits:
                    break
                vals[c1 + 16 * c2 + 256 * c3] = L[1] ** c1 * L[2] ** c2 * L[3] ** c3
                n *= small[c3 + c2 + c1]
    T = np.zeros(max(vals) + 1, dtype=dtype)
    T[list(vals)] = list(vals.values())
    return T


_prime_codes = np.empty(0, dtype=np.int32)


def _first_power_codes(ps: np.ndarray) -> np.ndarray:
    """4096 - lp(p), lp(p) = round(8 log2 p): the code step of a first power of p.

    See _mult_window_values.  Cached beside the shared prime array: ``ps`` is
    a prefix of it and every prefix lists the same primes, so one array,
    grown on demand, serves all.
    """
    global _prime_codes
    codes = _prime_codes
    if codes.size < ps.size:
        with _prime_lock:
            if _prime_codes.size < ps.size:
                _prime_codes = 4096 - np.rint(8 * np.log2(ps)).astype(np.int32)
                _prime_codes.flags.writeable = False
            codes = _prime_codes
    return codes[: ps.size]


#: Steps of the counts c1 + 16 c2 + 256 c3 when the exponent of a prime
#: reaches 1, 2, 3, 4 and more: the prime joins c1, moves up one count per
#: power, and from the 4th power on is in none.
_COUNT_STEP = (0, 1, 15, 240, -256, 0)
#: The counts of one prime to the exact power min(e, 4).
_COUNT = np.array([0, 1, 16, 256, 0], dtype=np.int32)


def _runs(first: np.ndarray, step: np.ndarray, count: np.ndarray) -> np.ndarray:
    """first[r] + t step[r] for 0 <= t < count[r], run after run."""
    starts = np.cumsum(count) - count
    return np.arange(int(starts[-1] + count[-1])) * np.repeat(step, count) + np.repeat(
        first - starts * step, count
    )


def _add_deep(code, lo, pos, pv, inc, fix) -> None:
    """Raise code[pos] from a first power of pv to its exact power, where pv^2 | lo + pos.

    ``inc`` holds the first-power steps of pv (_first_power_codes).  The pairs
    are few; an exponent >= 4 also goes on ``fix``.
    """
    r = (pos + lo) // (pv * pv)
    e = np.full(pos.size, 2, dtype=np.int32)
    cur = np.flatnonzero(r % pv == 0)
    while cur.size:
        r[cur] //= pv[cur]
        e[cur] += 1
        cur = cur[r[cur] % pv[cur] == 0]
    np.add.at(code, pos, ((_COUNT[np.minimum(e, 4)] - 1) << 12) - (e - 1) * (4096 - inc))
    deep = e >= 4
    if deep.any():
        fix.append((pos[deep], e[deep]))


def _mult_window_values(spec: FuncSpec, lo: int, hi: int) -> np.ndarray:
    """Values of an integer spec on [lo, hi], from the exponents of p <= sqrt(hi).

    One int32 array ``code`` describes each n = lo + i.  Its high bits count
    the primes p <= sqrt(hi) that divide n exactly once, twice and three
    times, c1 + 16 c2 + 256 c3 (no n < 2^63 has 16 prime factors, so each
    count fits its 4 bits); its low 12 bits hold 4095 + t - W, with W the sum
    of e lp(p) over those primes (lp(p) = round(8 log2 p)) and t the
    threshold of n's binade below.  Each prime power p^k <= hi adds one step
    to its multiples: _COUNT_STEP[k] << 12, less lp(p).  A prime with many
    multiples in the window adds strided slices (so do all p < size when
    fewer than 32 of them would be batched); the others are batched into
    (prime, multiple) pairs, at most _CONV_BLOCK at a time, or, for p >= size,
    stay scalar (one multiple each, picked by one mask); their exponents come
    from divisions on the few pairs with p^2 | n.  Exponents >= 4 leave the
    counts; they are kept per prime and multiplied in at the end.

    What remains of n once every p <= sqrt(hi) is out is 1 or one prime
    P > isqrt(hi), so P > sqrt(n) and the part m found is below sqrt(n).  Each
    lp(p) is within 1/2 of 8 log2 p, so W is within Omega(m)/2 <= (log2 m)/2
    of 8 log2 m: below 4 log2 n + (log2 n)/4 = 4.25 log2 n when P is left,
    and at least 8 log2 n - (log2 n)/2 = 7.5 log2 n when nothing is.  On the
    binade 2^k <= n < 2^(k+1) the threshold t = min(8k, 6k + 2) lies between
    the two (for k >= 2; for k = 1 a leftover n = P has W = 0 while n = 2, 3
    have W = 8, 13; n = 1 has W = 0 and t = 0).  So P is left exactly where
    W < t, which is where the low bits carry into the counts:
    code >> 12 = c1 + 16 c2 + 256 c3 + [P is left], P counting in c1.  The
    values are one gather from ``_signature_table(spec, bits)`` at that
    index.  The logs only choose the index: every value is a product of
    exact table entries.
    """
    ps = primes_upto(math.isqrt(hi))  # refuses a sieve past the cap first
    inc = _first_power_codes(ps)
    # at least one bit, so the tables exist on the empty window [1, 0] too
    bits = max(int(hi).bit_length(), 1)
    size = hi - lo + 1
    code = np.empty(size, dtype=np.int32)
    for k in range(int(lo).bit_length() - 1, bits):
        code[max(lo, 1 << k) - lo : min(hi + 1, 2 << k) - lo] = 4095 + min(8 * k, 6 * k + 2)
    fix = []  # (positions, exponents >= 4) to multiply in at the end
    # a prime with over 256 multiples pays its numpy calls back with slices,
    # and so do the primes below size when fewer than 32 of them would form
    # a batch, whose numpy calls cost about as much as 32 slices
    a, b = np.searchsorted(ps, [size // 256, size]).tolist()
    if b - a < 32:
        a = b
    for p, c in zip(ps[:a].tolist(), inc[:a].tolist()):
        q, k, w = p, 1, 4096 - c
        # m indexes the first multiple of q = p^k; none is left once m >= size
        while (m := -lo % q) < size:
            v = code[m::q]
            v += (_COUNT_STEP[min(k, 5)] << 12) - w  # in place on the view
            if k == 4:
                m4, q4 = m, q
                e = np.full(len(range(m, size, q)), 4, dtype=np.int8)
            elif k > 4:
                e[(m - m4) // q4 :: q // q4] += 1
            q *= p
            k += 1
        if k > 4:
            fix.append((slice(m4, None, q4), e))
    mid = ps[a:b]
    if mid.size:
        first = -lo % mid
        count = (size - 1 - first) // mid + 1
        sq = mid * mid
        first2 = -lo % sq
        ends = np.cumsum(count)
        i = 0
        while i < mid.size:
            base = ends[i] - count[i]
            j = max(int(np.searchsorted(ends, base + _CONV_BLOCK, side="right")), i + 1)
            c = count[i:j]
            np.add.at(code, _runs(first[i:j], mid[i:j], c), np.repeat(inc[a + i : a + j], c))
            d = np.flatnonzero(first2[i:j] < size) + i
            if d.size:
                c = (size - 1 - first2[d]) // sq[d] + 1
                _add_deep(code, lo, _runs(first2[d], sq[d], c), np.repeat(mid[d], c),
                          np.repeat(inc[a + d], c), fix)
            i = j
        del c, d  # free the last batch before the final pass
    # at most one multiple each, at hi - hi % p when that is >= lo; the few
    # primes that have one stay scalar
    large = ps[b:]
    rem = hi % large
    hit = (rem < size).nonzero()[0]
    for p, n, c in zip(large[hit].tolist(), (hi - rem[hit]).tolist(), inc[b + hit].tolist()):
        r, e = n // p, 1
        while r % p == 0:
            r //= p
            e += 1
        if e > 1:
            c = (int(_COUNT[min(e, 4)]) << 12) - e * (4096 - c)
            if e >= 4:
                fix.append(([n - lo], [e]))
        code[n - lo] += c
    np.right_shift(code, 12, out=code)
    T = _signature_table(spec, bits)
    # every index is in range; "clip" into a given array skips take()'s
    # bounds pass and its int32-to-intp copy of the indices
    out = T.take(code, out=np.empty(size, dtype=T.dtype), mode="clip")
    if fix:
        L = _local_table(spec, bits)
        for at, e in fix:
            if isinstance(at, slice):
                out[at] *= L[e]
            else:
                # two primes with exponents >= 4 can share an n
                np.multiply.at(out, at, L[e])
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


def _running_sum(a: np.ndarray) -> np.ndarray:
    """The running sum of ``a``, as a new array.

    An integer sum is int32 while every partial sum stays below 2^30 (so a
    difference of two fits as well), which halves a table's sums; int64 up
    to the guard bound; past it, exact Python integers on an object copy.
    """
    if a.dtype.kind != "i":
        return np.cumsum(a)
    bound = max(-int(a.min(initial=0)), int(a.max(initial=0))) * len(a)
    if bound >= _INT64_SAFE:
        return np.cumsum(a.astype(object))
    return np.cumsum(a, dtype=np.int32 if bound < 1 << 30 else np.int64)


_LEAVES = ("one", "log_pow")


def _leaf_values(spec: FuncSpec, t) -> np.ndarray:
    """A leaf (``one`` or ``log_pow``) at the points ``t``, an int array or a range."""
    if spec.kind == "one":
        return np.ones(len(t), dtype=np.int64)
    # the float points are a temporary, freed once their log is taken
    return np.log(
        np.arange(t.start, t.stop, dtype=np.float64)
        if isinstance(t, range)
        else t.astype(np.float64)
    ) ** spec.param


def _cover(spec, lo, hi, a, b, blk):
    """The child ``spec`` on [a, b], the cover of one block's child windows, or None.

    ``blk`` holds the rows (d or j) of one dyadic block [D0, 2 D0) of the far
    window [lo, hi]; their child windows lie inside [a, b].  The child is
    evaluated once on that cover when the cover has no more entries than the
    block's child sweeps cost, len(blk) isqrt(hi // D0), and no more than
    max(2 _CONV_BLOCK, hi - lo + 1).  A leaf takes no cover: one numpy
    expression at the gathered points costs less.
    """
    D0 = 1 << (int(blk[0]).bit_length() - 1)
    if spec.kind in _LEAVES or b - a + 1 > min(
        len(blk) * math.isqrt(hi // D0), max(2 * _CONV_BLOCK, hi - lo + 1)
    ):
        return None
    return _real_values(spec, a, b)


def _child_at(spec, t, cover, a):
    """The child ``spec`` at the points ``t``, from its cover on [a, ..] if any."""
    if cover is not None:
        return cover[t - a]
    if spec.kind in _LEAVES:
        return _leaf_values(spec, t)
    # each run of consecutive points is one child window
    cut = np.flatnonzero(np.diff(t) != 1) + 1
    firsts, lasts = t[np.r_[0, cut]].tolist(), t[np.r_[cut - 1, t.size - 1]].tolist()
    return np.concatenate([_real_values(spec, u, v) for u, v in zip(firsts, lasts)])


def _add_pairs(out, lo, hi, rows, coef, t0, t1, child) -> None:
    """Add coef[i] child(t) into out[rows[i] t - lo] for t0[i] <= t <= t1[i].

    The rows go in order, by dyadic blocks with one cover each (_cover); a
    leaf child takes no cover, so its rows form one block.  The
    (row, t) pairs of a block go in batches of at most _CONV_BLOCK, cut from
    one cumsum of the row counts.  np.add.at applies a repeated index in
    array order, so every out[n] adds its terms in the order of the rows.
    """
    keep = (coef != 0) & (t0 <= t1)
    rows, coef, t0, count = rows[keep], coef[keep], t0[keep], (t1 - t0 + 1)[keep]
    if not rows.size:
        return
    bounds = [0, rows.size]
    if child.kind not in _LEAVES:
        bounds[1:1] = (np.flatnonzero(np.diff(np.frexp(rows)[1])) + 1).tolist()
    for u, v in zip(bounds, bounds[1:]):
        r, c, t, n = rows[u:v], coef[u:v], t0[u:v], count[u:v]
        a = int(t.min())
        cover = _cover(child, lo, hi, a, int((t + n).max()) - 1, r)
        ends = np.cumsum(n)
        shift = t + n - ends  # pair p of row i is t = p + shift[i]
        for s in range(0, int(ends[-1]), _CONV_BLOCK):
            p = np.arange(s, min(s + _CONV_BLOCK, int(ends[-1])))
            i = np.searchsorted(ends, p, side="right")
            p += shift[i]
            np.add.at(out, r[i] * p - lo, c[i] * _child_at(child, p, cover, a))
        del cover, p, i  # at most one cover per loop and recursion level


def _far_sweep(out, lo, hi, f, g) -> None:
    """Add the values of f * g on the far window [lo, hi] into the zeroed ``out``.

    A far window is shorter than its offset, 2 (lo - 1) > hi.  Its pairs
    (d, j) with dj in [lo, hi] go d-major over d <= sqrt(hi), then by
    descending cofactor j over the larger d (for a fixed n, a larger j is a
    smaller d), so every out[n] adds f(d) g(n/d) in increasing d as the other
    routes do (_add_pairs).
    """
    S = math.isqrt(hi)
    ds = np.arange(1, S + 1)
    _add_pairs(out, lo, hi, ds, _real_values(f, 1, S), (lo - 1) // ds + 1, hi // ds, g)
    J = hi // (S + 1)
    if J:
        js = np.arange(J, 0, -1)
        t0 = np.maximum((lo - 1) // js, S) + 1
        _add_pairs(out, lo, hi, js, _real_values(g, 1, J)[::-1], t0, hi // js, f)


def _conv_sweep(out, lo, hi, fv, gv) -> None:
    """Add the values of f * g on [lo, hi], 2 (lo - 1) <= hi, into the zeroed ``out``.

    ``fv[n - 1]`` and ``gv[n - 1]`` hold f(n) and g(n) for n <= hi.  Each
    out[n] adds f(d) g(n/d) in increasing d: one strided slice per
    d <= sqrt(hi), then cofactors j from high to low, the d-range of each j
    in chunks of _CONV_BLOCK.
    """
    S = math.isqrt(hi)
    for d in (np.flatnonzero(fv[:S]) + 1).tolist():
        j0 = (lo - 1) // d + 1
        out[d * j0 - lo :: d] += fv[d - 1] * gv[j0 - 1 : hi // d]
    for j in (np.flatnonzero(gv[: hi // (S + 1)]) + 1).tolist()[::-1]:
        gj = gv[j - 1]
        for a in range(max(S, (lo - 1) // j) + 1, hi // j + 1, _CONV_BLOCK):
            b = min(a + _CONV_BLOCK - 1, hi // j)
            out[a * j - lo : b * j - lo + 1 : j] += fv[a - 1 : b] * gj


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
    _conv_sweep(out[1:], 1, N, fv[1:], gv[1:])
    return out


def _window_values(spec: FuncSpec, lo: int, hi: int) -> np.ndarray:
    """Values of a base-form spec on [lo, hi].

    A convolution on a window at least as long as its offset (2 (lo - 1) <= hi:
    a prefix table or a dyadic block) evaluates each child once on [1, hi], at
    most about twice the window, and sweeps slices of those arrays
    (_conv_sweep); a far window batches its (d, j) pairs and takes the child
    values at them from covers, log expressions or this recursion (_far_sweep).
    """
    kind = spec.kind
    if kind in _LEAVES:
        return _leaf_values(spec, range(lo, hi + 1))
    if prime_power_locals(spec) is not None:
        return _mult_window_values(spec, lo, hi)
    if kind == "pointwise":
        f, g = spec.children
        return _real_values(f, lo, hi) * _real_values(g, lo, hi)
    if kind != "convolve":
        raise InvalidSpecError(f"no window engine for spec kind {kind!r}")
    f, g = spec.children
    # integer convolutions have prime-power locals, so this one is real
    out = np.zeros(hi - lo + 1, dtype=np.float64)
    if 2 * (lo - 1) <= hi:
        _conv_sweep(out, lo, hi, _real_values(f, 1, hi), _real_values(g, 1, hi))
    else:
        _far_sweep(out, lo, hi, f, g)
    return out


def _real_values(spec: FuncSpec, lo: int, hi: int) -> np.ndarray:
    """A child of a real node: exact big-int values become floats, as at a point."""
    v = _window_values(spec, lo, hi)
    return v.astype(np.float64) if v.dtype == object else v


def _range_values(spec: FuncSpec, lo: int, hi: int) -> np.ndarray:
    return _window_values(base_form(spec), lo, hi)


def _prefix_entry(spec: FuncSpec, N: int) -> dict:
    if N < 0:
        raise PreconditionError(f"prefix table requires N >= 0, got {N}")
    key = spec.key
    with _table_lock:
        entry = _table_cache.get(key)
        if entry is not None and entry["N"] >= N:
            # refresh LRU position
            _table_cache.pop(key)
            _table_cache[key] = entry
            return entry
        if N > PREFIX_WINDOW_MAX:
            raise SegmentCapError(
                f"prefix table up to {N} exceeds the prefix cap {PREFIX_WINDOW_MAX}"
            )
        if entry is not None:
            # amortize growing access patterns; per-index values do not depend
            # on the build size, so overshooting is invisible to callers
            N = max(N, min(2 * entry["N"], PREFIX_WINDOW_MAX))
    values = np.concatenate((np.zeros(1, np.int64), _range_values(spec, 1, N)))
    sums = _running_sum(values)
    values.flags.writeable = sums.flags.writeable = False
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
    """Read-only array v with v[n] = spec(n) for 0 <= n <= N (v[0] = 0), cached.

    A table that is not cached is refused past ``PREFIX_WINDOW_MAX``.
    """
    return _prefix_entry(spec, N)["values"][: N + 1]


def prefix_sums(spec: FuncSpec, N: int) -> np.ndarray:
    """Read-only array S with S[n] = sum of spec over [1, n], S[0] = 0, cached.

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
        return _leaf_values(spec, range(n, n + 1))[0].item()
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


def _choose_engine(spec: FuncSpec, lo: int, hi: int) -> str:
    """The tag of the engine that evaluates the spec on [lo, hi].

    The tag depends on the spec alone: the window sieve ("m") for a spec with
    prime-power locals, one numpy expression ("l") for ``log_pow``, and the
    window recursion ("n") for any other spec.  The recursion sweeps arrays of
    up to isqrt(hi) entries, so it is refused here, before any allocation,
    when those would exceed the segment cap.
    """
    if prime_power_locals(spec) is not None:
        return "m"
    if spec.kind == "log_pow":
        return "l"
    if math.isqrt(hi) > SEGMENT_CAP:
        raise SegmentCapError(f"far window up to {hi} exceeds the segment cap {SEGMENT_CAP}")
    return "n"


def sieve_range(spec: FuncSpec, lo: int, hi: int) -> ValueTable:
    """Exact table of the spec on [lo, hi]; identical to pointwise evaluation.

    The window is computed on its own, never sliced from a prefix table.
    """
    if not (1 <= lo <= hi):
        raise PreconditionError(f"sieve_range requires 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > MAX_N:
        raise PreconditionError(f"sieve_range requires hi <= 2^63-1, got {hi}")
    if hi - lo + 1 > SEGMENT_CAP:
        raise SegmentCapError(
            f"window of {hi - lo + 1} entries exceeds the segment cap {SEGMENT_CAP}"
        )
    _choose_engine(spec, lo, hi)  # refuses a far window past the cap first
    return ValueTable(spec, lo, hi, _range_values(spec, lo, hi))


def _exact_int_sum(vals: np.ndarray) -> int:
    if vals.dtype == object:
        return int(sum(vals))
    bound = int(np.abs(vals).max(initial=0)) * len(vals)
    if bound < _INT64_SAFE:
        return int(np.sum(vals, dtype=np.int64))
    return sum(int(v) for v in vals)


def _dot(a: np.ndarray, b: np.ndarray):
    """Sum of a[i] * b[i]: an exact int when both arrays hold integers, else a float.

    An integer spec's tables and window sums are integer or object arrays, a
    real spec's are float64, so the dtypes say which sum is meant.
    """
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        return float(np.sum(a.astype(np.float64) * b.astype(np.float64)))
    if a.dtype == object or b.dtype == object:
        return sum(int(u) * int(v) for u, v in zip(a, b))
    bound = int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) * (len(a) + 1)
    if bound < _INT64_SAFE:
        return int(np.sum(a * b, dtype=np.int64))
    return sum(int(u) * int(v) for u, v in zip(a, b))


def short_sum_bruteforce(spec: FuncSpec, x: int, y: int):
    """Exact sum of the spec over the window (x, x+y].

    x = 0 sums the prefix [1, y], computed as a window like any other: no
    prefix table is read or built.  Windows wider than the segment cap are
    processed as consecutive segments; the reduction is exact on the integer
    path and grouping-independent (one global compensated sum) on the real
    path, so the result does not depend on the cap.  An installed disk cache
    (:func:`set_segment_cache`) answers a repeat call.
    """
    if x < 0 or y < 0:
        raise PreconditionError(f"short sum requires x >= 0 and y >= 0, got {x}, {y}")
    if x + y > MAX_N:
        raise PreconditionError("short sum requires x + y <= 2^63-1")
    if y == 0:
        return 0 if spec.integer_valued else 0.0
    _choose_engine(spec, x + 1, x + y)  # refuses a window past the cap first
    cache = _segment_cache
    total = None if cache is None else cache.load(spec, x, y)
    if total is None:
        total = _segment_sum(spec, x, y, lambda lo, hi: sieve_range(spec, lo, hi).values)
        if cache is not None:
            cache.store(spec, x, y, total)
    return total


def _segment_sum(spec: FuncSpec, x: int, y: int, values):
    """Exact sum over (x, x+y] of ``values(lo, hi)``, segment by segment of SEGMENT_CAP."""
    segs = (
        values(lo, min(lo + SEGMENT_CAP - 1, x + y))
        for lo in range(x + 1, x + y + 1, SEGMENT_CAP)
    )
    if spec.integer_valued:
        return sum(_exact_int_sum(v) for v in segs)
    return math.fsum(itertools.chain.from_iterable(segs))


def _window_sums(b: FuncSpec, x: int, top: int, v: np.ndarray) -> np.ndarray:
    """Sums of b over the windows (x // v, top // v], one per entry of v.

    Past ``PREFIX_WINDOW_MAX`` each window is summed on its own and its sum is
    not cached: a leg has thousands of short windows, each used once.
    """
    lo, hi = x // v, top // v
    if b.kind == "one":
        return hi - lo
    if top <= PREFIX_WINDOW_MAX:
        sums = prefix_sums(b, top)
        return sums[hi] - sums[lo]
    _choose_engine(b, top, top)  # refuses a window past the cap first
    return np.array(
        [_segment_sum(b, l, h - l, lambda a, c: _range_values(b, a, c))
         for l, h in zip(lo.tolist(), hi.tolist())],
        dtype=object if b.integer_valued else np.float64,
    )


# ---------------------------------------------------------------------------
# named operations on top of the engines
# ---------------------------------------------------------------------------


def dirichlet_convolve_point(f: FuncSpec, g: FuncSpec, n: int):
    """(f * g)(n) = sum over d | n of f(d) g(n/d), evaluated directly."""
    return evaluate_point(convolve(f, g), n)


def dirichlet_inverse_prefix(g: FuncSpec, N: int) -> ValueTable:
    """Table of the convolution inverse of g on [1, N].

    Exact integers: every g with g(1) != 0 is integer-valued with g(1) = 1.
    """
    inv = dirichlet_inverse(g)  # validates g(1) != 0
    return sieve_range(inv, 1, N)


def eratosthenes_transform(F: FuncSpec, N: int) -> ValueTable:
    """Table of F * mobius on [1, N]; convolving back with `one` recovers F."""
    return sieve_range(convolve(F, mobius()), 1, N)


def von_mangoldt_attached(g: FuncSpec, N: int) -> ValueTable:
    """Table of the von Mangoldt function attached to g on [1, N]."""
    from .specs import lambda_attached  # validates g(1) != 0

    return sieve_range(lambda_attached(g), 1, N)
