"""Exact evaluation of arithmetic functions, pointwise and on integer ranges.

Every route evaluates the normal form :func:`hyplab.specs.base_form`.  Values
on integer ranges come from one recursion over the spec tree, and each engine
of it takes a batch of windows [lo[i], hi[i]] (two int64 arrays) and returns
their values concatenated; a single window is a batch of one.  Integer specs
(exponent-only prime-power values) go through the vectorized multiplicative
sieve over the primes p <= sqrt(hi) of each window, in two branches: a
strided slice of a window per prime with many multiples in it, and every
other (window, prime) cell in chunks, whose (window, prime, multiple) pairs
are added in batches.  Each prime power adds one int32 step to a signature
code per multiple: in its high bits the counts c1 + 16 c2 + 256 c3 of the
primes dividing n exactly once, twice and three times, in its low 12 bits a
rounded log weight sum, sum of e round(8 log2 p), offset by a threshold per
binade of n.  The weight tells, with a margin the rounding cannot cross,
whether a prime above sqrt(hi) is left in n (the proof is at
:func:`_mult_window_values`); where it is, the low bits carry one into c1.
So code >> 12 indexes a table of exact products L[1]^c1 L[2]^c2 L[3]^c3,
and the rare exponents >= 4 are multiplied in after that one gather.  A
leaf, ``one`` or ``log_pow``, is one numpy expression at any points.  A real
convolution runs one sweep over the pairs (d, j) with dj in the window:
d <= sqrt(hi) first, then the larger d by cofactor j from high to low.

Three rules place the work of a convolution.  The route rule: a window is
computed on its own, so a window (x, x+y] costs about y + sqrt(x) work at any
x; a spec's cached prefix table [1, N] answers prefix requests only
(:func:`prefix_values`, :func:`prefix_sums` and the hyperbola legs).  A table
that must grow is built again, in one piece, at twice its size up to
``PREFIX_WINDOW_MAX``.  No table is built past that cap: a request past it
raises ``SegmentCapError`` before anything is allocated; past it the legs
sum their windows in batches.  The shape rule: on a window at least as long
as its offset (2 (lo - 1) <= hi, as every prefix table and dyadic block
(N, 2N] is) the children are evaluated once as arrays from 1 and the sweep
takes a strided slice per d and per j.  The far windows of a batch are swept
together: their rows (d and j) go d-major over all of them, in groups of at
most _CONV_BLOCK rows, so each dyadic block of rows, [D0, 2 D0), serves the
child windows of every window of the group; its pairs are added in batches
of at most _CONV_BLOCK with one ``np.add.at`` each, with the child values
taken at the gathered points.  The cover rule: a far block of n child
windows evaluates its child once, on the cover of those windows, when the
cover has at most n isqrt(hi // D0) entries (the cost of n child sweeps)
and at most max(2 _CONV_BLOCK, y) for windows of y entries.  A leaf child
takes no cover: its expression is evaluated at the gathered points
themselves.  Any other child recurses once per batch of pairs, on the batch
of its runs of consecutive points.  A cover is freed when its block is done,
so at most one is alive per sweep loop and per recursion level, each of at
most max(2 _CONV_BLOCK, y) entries.

The point route evaluates one argument from its factorization.  Every route
adds a convolution's terms in increasing d over its first factor
(``np.add.at`` applies a repeated index in array order) and takes leaf
values from the same numpy expression, so a real value does not depend on its
route or on the window, cover or batch of windows it is computed in, bit for
bit.  Integer work is exact: the int64 fast paths carry bound guards and
escalate to Python integers rather than wrap around.  An integer spec's
arrays are int64 or object (a table's running sums int32 while they stay
below 2^30) and a real spec's are float64, so a sum reads its exactness off
the dtypes.
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

#: Entries per chunk of the near convolution sweep; rows per group of far
#: windows and (d, j) pairs per batch of the far sweep; (window, prime) cells
#: per chunk and (window, prime, multiple) pairs per batch of the window
#: sieve; entries per batch of leg windows.  Bounds the temporaries of all.
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
#: 4095 + min(8k, 6k + 2): the code of an n in the binade 2^k <= n < 2^(k+1)
#: before any prime steps in.
_THRESHOLD = np.array([4095 + min(8 * k, 6 * k + 2) for k in range(64)], dtype=np.int32)


def _span(lo: int, hi: int):
    """The one window [lo, hi] as the (lo, hi) arrays of a batch."""
    return np.array([lo], dtype=np.int64), np.array([hi], dtype=np.int64)


def _isqrt(a: np.ndarray) -> np.ndarray:
    """math.isqrt of each entry of the int64 array a, 0 <= a < 2^52.

    The rounded root of an exact float is at least the integer root and at
    most one above it.
    """
    r = np.sqrt(a).astype(np.int64)
    return r - (r * r > a)


def _runs(first, step, count) -> np.ndarray:
    """first[r] + t step[r] for 0 <= t < count[r], run after run; step may be a number."""
    starts = np.cumsum(count) - count
    t = np.arange(int(count.sum()))
    t *= np.repeat(step, count) if np.ndim(step) else step
    t += np.repeat(first - starts * step, count)
    return t


def _chunks(count, first, block):
    """(i, first[i] + t) for 0 <= t < count[i], row after row.

    The items come in chunks of at most ``block``; a row may span two chunks.
    """
    ends = np.cumsum(count)
    shift = first - (ends - count)
    total = int(ends[-1]) if ends.size else 0
    for s in range(0, total, block):
        e = min(s + block, total)
        a, b = np.searchsorted(ends, [s, e - 1], side="right").tolist()
        c = np.minimum(ends[a : b + 1], e) - np.maximum(ends[a : b + 1] - count[a : b + 1], s)
        i = np.repeat(np.arange(a, b + 1), c)
        yield i, np.arange(s, e) + shift[i]


def _groups(count, block):
    """Slices of consecutive rows with at most ``block`` items in all, or one row."""
    ends = np.cumsum(count)
    i = 0
    while i < count.size:
        j = max(int(np.searchsorted(ends, ends[i] - count[i] + block, side="right")), i + 1)
        yield slice(i, j)
        i = j


def _add_deep(code, pos, n, pv, inc, fix) -> None:
    """Raise code[pos] from a first power of pv to its exact power, where pv^2 | n.

    ``inc`` holds the first-power steps of pv (_first_power_codes).  The pairs
    are few; an exponent >= 4 also goes on ``fix``.
    """
    r = n // (pv * pv)
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


def _mult_window_values(spec: FuncSpec, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Values of an integer spec on the windows [lo[i], hi[i]], concatenated.

    One int32 array ``code`` describes each n of each window.  Its high bits
    count the primes p <= sqrt(hi) that divide n exactly once, twice and three
    times, c1 + 16 c2 + 256 c3 (no n < 2^63 has 16 prime factors, so each
    count fits its 4 bits); its low 12 bits hold 4095 + t - W, with W the sum
    of e lp(p) over those primes (lp(p) = round(8 log2 p)) and t the
    threshold of n's binade below.  Each prime power p^k <= hi adds one step
    to its multiples: _COUNT_STEP[k] << 12, less lp(p).  Two branches place
    the steps.  A prime with over 256 multiples in a window adds strided
    slices of that window.  Every other prime p <= sqrt(hi) of each window is
    one (window, prime) cell; the cells go in chunks of at most _CONV_BLOCK,
    a mask keeps those with a multiple in their window, and their (window,
    prime, multiple) pairs go in batches of at most _CONV_BLOCK with one
    ``np.add.at`` each.  The exponents come from divisions on the few pairs
    with p^2 | n.  Exponents >= 4 leave the counts; they are kept per prime
    and multiplied in at the end.

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
    index, with bits the length of the largest hi.  The logs only choose the
    index: every value is a product of exact table entries, so it does not
    depend on the batch it is computed in.
    """
    top = int(hi.max())
    ps = primes_upto(math.isqrt(top))  # refuses a sieve past the cap first
    inc = _first_power_codes(ps)
    # at least one bit, so the tables exist on the empty window [1, 0] too
    bits = max(top.bit_length(), 1)
    size = hi - lo + 1
    off = np.cumsum(size) - size
    # one run of thresholds per window and binade 2^k <= n < 2^(k+1) in it;
    # n < 2^49, so a float exponent is exact
    k0 = np.frexp(lo)[1] - 1
    runs = np.maximum(np.frexp(hi)[1] - k0, 0)
    i = np.repeat(np.arange(lo.size), runs)
    k = np.arange(i.size) + np.repeat(k0 - (np.cumsum(runs) - runs), runs)
    code = _THRESHOLD[k].repeat(np.minimum(hi[i] + 1, 2 << k) - np.maximum(lo[i], 1 << k))
    fix = []  # (positions, exponents >= 4) to multiply in at the end
    # window i sieves the primes ps[:last[i]]; a prime with over 256
    # multiples there pays its numpy calls back with slices, and so do all
    # primes of a batch whose windows are longer than their primes (a small
    # prefix table) when it holds fewer than 32 of them: the cell pass it
    # then skips costs about as much as 32 slices
    last = np.searchsorted(ps, _isqrt(hi), side="right")
    strided = np.minimum(np.searchsorted(ps, size // 256), last)
    if (last <= np.searchsorted(ps, size)).all() and (last - strided).sum() < 32:
        strided = last
    for i in np.flatnonzero(strided).tolist():
        o, m0, s = int(off[i]), int(lo[i]), int(size[i])
        window = code[o : o + s]
        for p, c in zip(ps[: strided[i]].tolist(), inc[: strided[i]].tolist()):
            q, k, w = p, 1, 4096 - c
            # m indexes the first multiple of q = p^k; none is left once m >= s
            while (m := -m0 % q) < s:
                v = window[m::q]
                v += (_COUNT_STEP[min(k, 5)] << 12) - w  # in place on the view
                if k == 4:
                    m4, q4 = m, q
                    e = np.full(len(range(m, s, q)), 4, dtype=np.int8)
                elif k > 4:
                    e[(m - m4) // q4 :: q // q4] += 1
                q *= p
                k += 1
            if k > 4:
                fix.append((slice(o + m4, o + s, q4), e))
    for i, j in _chunks(last - strided, strided, _CONV_BLOCK):
        # cells (window i, prime ps[j]); keep those with a multiple in window i
        p = ps[j]
        first = -lo[i] % p
        hit = np.flatnonzero(first < size[i])
        i, p, first, step = i[hit], p[hit], first[hit], inc[j[hit]]
        count = (size[i] - 1 - first) // p + 1
        at = off[i] + first
        for g in _groups(count, _CONV_BLOCK):
            np.add.at(code, _runs(at[g], p[g], count[g]), np.repeat(step[g], count[g]))
        # the exponents from the multiples of p^2
        sq = p * p
        first = -lo[i] % sq
        d = np.flatnonzero(first < size[i])
        if not d.size:
            continue
        i, p, sq, first, step = i[d], p[d], sq[d], first[d], step[d]
        count = (size[i] - 1 - first) // sq + 1
        at, shift = off[i] + first, lo[i] - off[i]
        for g in _groups(count, _CONV_BLOCK):
            c = count[g]
            pos = _runs(at[g], sq[g], c)
            _add_deep(code, pos, pos + np.repeat(shift[g], c), np.repeat(p[g], c),
                      np.repeat(step[g], c), fix)
    np.right_shift(code, 12, out=code)
    T = _signature_table(spec, bits)
    # every index is in range; "clip" into a given array skips take()'s
    # bounds pass, but take() still copies the int32 codes to intp indices
    out = T.take(code, out=np.empty(code.size, dtype=T.dtype), mode="clip")
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


def _leaf_values(spec: FuncSpec, t: np.ndarray) -> np.ndarray:
    """A leaf (``one`` or ``log_pow``) at the integer points ``t``."""
    if spec.kind == "one":
        return np.ones(len(t), dtype=np.int64)
    v = np.log(t)
    v **= spec.param  # in place: the same values as v ** param, one array less
    return v


def _cover(spec, hi, y, a, b, blk):
    """The child ``spec`` on [a, b], the cover of one block's child windows, or None.

    ``blk`` holds the rows (d or j) of one dyadic block [D0, 2 D0) of far
    windows that end at or below ``hi`` and hold ``y`` entries in all; their
    child windows lie inside [a, b].  The child is evaluated once on that
    cover when the cover has no more entries than the block's child sweeps
    cost, len(blk) isqrt(hi // D0), and no more than max(2 _CONV_BLOCK, y).
    A leaf takes no cover: one numpy expression at the gathered points costs
    less.
    """
    D0 = 1 << (int(blk[0]).bit_length() - 1)
    if spec.kind in _LEAVES or b - a + 1 > min(
        len(blk) * math.isqrt(hi // D0), max(2 * _CONV_BLOCK, y)
    ):
        return None
    return _real_values(spec, *_span(a, b))


def _child_at(spec, t, cover, a):
    """The child ``spec`` at the points ``t``, from its cover on [a, ..] if any."""
    if cover is not None:
        return cover[t - a]
    if spec.kind in _LEAVES:
        return _leaf_values(spec, t)
    # each run of consecutive points is one child window of one batch
    cut = np.flatnonzero(np.diff(t) != 1) + 1
    return _real_values(spec, t[np.r_[0, cut]], t[np.r_[cut - 1, t.size - 1]])


def _add_pairs(out, rows, coef, t0, t1, base, child, hi, y) -> None:
    """Add coef[i] child(t) into out[base[i] + rows[i] t] for t0[i] <= t <= t1[i].

    The rows go in order, by dyadic blocks with one cover each (_cover); a
    leaf child takes no cover, so its rows form one block.  The (row, t)
    pairs of a block go in batches of at most _CONV_BLOCK.  np.add.at applies
    a repeated index in array order, so every out[n] adds its terms in the
    order of the rows.  ``hi`` and ``y`` are the largest end and the entries
    of the windows that ``out`` holds.
    """
    keep = (coef != 0) & (t0 <= t1)
    count = (t1 - t0 + 1)[keep]
    rows, coef, t0, base = rows[keep], coef[keep], t0[keep], base[keep]
    if not rows.size:
        return
    bounds = [0, rows.size]
    if child.kind not in _LEAVES:
        bounds[1:1] = (np.flatnonzero(np.diff(np.frexp(rows)[1])) + 1).tolist()
    for u, v in zip(bounds, bounds[1:]):
        r, c, t, b, n = rows[u:v], coef[u:v], t0[u:v], base[u:v], count[u:v]
        a = int(t.min())
        cover = _cover(child, hi, y, a, int((t + n).max()) - 1, r)
        for i, p in _chunks(n, t, _CONV_BLOCK):
            np.add.at(out, b[i] + r[i] * p, c[i] * _child_at(child, p, cover, a))
        del cover  # at most one cover per loop and recursion level


def _rows(count: np.ndarray):
    """(i, v) for 1 <= v <= count[i], in increasing v: the rows of all windows, v-major."""
    order = np.argsort(-count, kind="stable")
    c = -count[order]
    per = np.searchsorted(c, -np.arange(1, 1 - c[0]), side="right")
    v = np.repeat(np.arange(1, 1 - c[0]), per)
    return order[np.arange(v.size) - np.repeat(np.cumsum(per) - per, per)], v


def _far_sweep(out, lo, hi, base, f, g) -> None:
    """Add the values of f * g on the far windows [lo[i], hi[i]] into the zeroed ``out``.

    Window i is at out[base[i] + n].  A far window is shorter than its
    offset, 2 (lo - 1) > hi.  Its pairs (d, j) with dj in [lo, hi] go d-major
    over d <= sqrt(hi), then by descending cofactor j over the larger d (for a
    fixed n, a larger j is a smaller d), so every value adds f(d) g(n/d) in
    increasing d as the other routes do (_add_pairs).  The windows go in
    groups of at most _CONV_BLOCK rows, and the rows of a group go d-major
    (and j-major) over all its windows, so one dyadic block of d (or j)
    serves the child windows of all of them.
    """
    S = _isqrt(hi)
    J = hi // (S + 1)
    fv = _real_values(f, *_span(1, int(S.max())))
    gv = _real_values(g, *_span(1, int(J.max())))
    for grp in _groups(S + J, _CONV_BLOCK):
        a, b, at, s = lo[grp], hi[grp], base[grp], S[grp]
        top, y = int(b.max()), int((b - a + 1).sum())
        i, d = _rows(s)
        _add_pairs(out, d, fv[d - 1], (a[i] - 1) // d + 1, b[i] // d, at[i], g, top, y)
        i, j = (r[::-1] for r in _rows(J[grp]))
        t0 = np.maximum((a[i] - 1) // j, s[i]) + 1
        _add_pairs(out, j, gv[j - 1], t0, b[i] // j, at[i], f, top, y)


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


def _window_values(spec: FuncSpec, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Values of a base-form spec on the windows [lo[i], hi[i]], concatenated.

    Windows may overlap; each gets its own values.  A convolution on a window
    at least as long as its offset (2 (lo - 1) <= hi: a prefix table or a
    dyadic block) evaluates each child once on [1, hi], at most about twice
    the window, and sweeps slices of those arrays (_conv_sweep).  The far
    windows of a batch are swept together: their (d, j) pairs go in batches,
    with the child values taken from covers, log expressions or this
    recursion on one batch of child windows (_far_sweep).
    """
    kind = spec.kind
    if kind in _LEAVES:
        return _leaf_values(spec, _runs(lo, 1, hi - lo + 1))
    if prime_power_locals(spec) is not None:
        return _mult_window_values(spec, lo, hi)
    if kind == "pointwise":
        f, g = spec.children
        return _real_values(f, lo, hi) * _real_values(g, lo, hi)
    if kind != "convolve":
        raise InvalidSpecError(f"no window engine for spec kind {kind!r}")
    f, g = spec.children
    # integer convolutions have prime-power locals, so this one is real
    size = hi - lo + 1
    base = np.cumsum(size) - size - lo  # window i is at out[base[i] + n]
    out = np.zeros(int(size.sum()), dtype=np.float64)
    near = lo - 1 <= size  # 2 (lo - 1) <= hi, without overflow
    for i in np.flatnonzero(near).tolist():
        a, b = int(lo[i]), int(hi[i])
        fv = _real_values(f, *_span(1, b))
        gv = _real_values(g, *_span(1, b))
        _conv_sweep(out[a + base[i] : b + base[i] + 1], a, b, fv, gv)
    if not near.all():
        far = ~near
        _far_sweep(out, lo[far], hi[far], base[far], f, g)
    return out


def _real_values(spec: FuncSpec, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A child of a real node: exact big-int values become floats, as at a point."""
    v = _window_values(spec, lo, hi)
    return v.astype(np.float64) if v.dtype == object else v


def _range_values(spec: FuncSpec, lo: int, hi: int) -> np.ndarray:
    return _window_values(base_form(spec), *_span(lo, hi))


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
        return _leaf_values(spec, np.array([n]))[0].item()
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


def _exact_int_sums(vals: np.ndarray, starts) -> list:
    """Exact sums of vals[starts[i] : starts[i + 1]] (the last to the end), as ints."""
    if vals.dtype == object or int(np.abs(vals).max(initial=0)) * len(vals) >= _INT64_SAFE:
        vals = vals.astype(object)
    return np.add.reduceat(vals, starts).tolist()


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
        segs = (
            sieve_range(spec, lo, min(lo + SEGMENT_CAP - 1, x + y)).values
            for lo in range(x + 1, x + y + 1, SEGMENT_CAP)
        )
        if spec.integer_valued:
            total = sum(_exact_int_sums(v, [0])[0] for v in segs)
        else:
            total = math.fsum(itertools.chain.from_iterable(segs))
        if cache is not None:
            cache.store(spec, x, y, total)
    return total


def _window_sums(b: FuncSpec, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums of b over the windows (lo[i], hi[i]], 0 <= lo[i] <= hi[i]; the batch may be empty.

    When the largest hi is at most ``PREFIX_WINDOW_MAX`` they are differences
    of b's prefix table up to it.  Past it the windows, cut into pieces of at
    most ``SEGMENT_CAP`` entries as short_sum_bruteforce cuts a window, go
    through the engines in batches (_piece_sums), and the sums are not
    cached: a leg has thousands of short windows, each used once.  An integer
    sum is exact, and a real one is one ``math.fsum`` over its window's
    values, so no sum depends on its batch.
    """
    if b.kind == "one":
        return hi - lo
    top = int(hi.max(initial=0))
    if top <= PREFIX_WINDOW_MAX:
        sums = prefix_sums(b, top)
        return sums[hi] - sums[lo]
    _choose_engine(b, top, top)  # refuses a window past the cap first
    w = np.flatnonzero(hi > lo)
    n = (hi[w] - lo[w] - 1) // SEGMENT_CAP + 1  # pieces per window
    a = _runs(lo[w] + 1, np.full(w.size, SEGMENT_CAP), n)
    parts = _piece_sums(base_form(b), a, a + np.minimum(np.repeat(hi[w], n) - a, SEGMENT_CAP - 1))
    if b.integer_valued:
        out = np.zeros(lo.size, dtype=object)
        out[w] = np.add.reduceat(np.fromiter(parts, object, a.size), np.cumsum(n) - n)
        return out
    out = np.zeros(lo.size)
    chain, islice = itertools.chain.from_iterable, itertools.islice
    out[w] = [math.fsum(chain(islice(parts, k))) for k in n.tolist()]
    return out


def _piece_sums(spec: FuncSpec, lo: np.ndarray, hi: np.ndarray):
    """Window by window: the exact sum of an integer spec, the values of a real one.

    One engine call per batch of consecutive windows [lo[i], hi[i]] with at
    most max(_CONV_BLOCK, one window) entries, so a batch holds one long
    window or many short ones.
    """
    size = hi - lo + 1
    for grp in _groups(size, _CONV_BLOCK):
        vals = _window_values(spec, lo[grp], hi[grp])
        starts = np.cumsum(size[grp]) - size[grp]
        if vals.dtype.kind == "f":
            yield from np.split(vals, starts[1:])
        else:
            yield from _exact_int_sums(vals, starts)


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
