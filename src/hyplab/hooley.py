"""Divisor concentration: Hooley's Delta_r function and dyadic divisor sums.

Delta_r(n) is the maximum, over real shifts u_1, ..., u_{r-1}, of the number
of tuples (d_1, ..., d_{r-1}) with d_1 ... d_{r-1} | n and each d_i inside the
log-length-1 window (e^{u_i}, e^{u_i+1}].

The tuple count is piecewise constant in every u_i, changing only where a
window edge crosses log d for some divisor d, and shifting any window left
until its edge sits just below the smallest divisor it contains never drops
the count.  The exact maximum is therefore attained on candidate windows
anchored just below a divisor.  Window-edge comparisons carry a relative
1e-12 nudge so that strict and weak inequalities stay unambiguous in floating
point; integer divisor ratios cannot approach e closely enough at desk scale
to be misread under that nudge.

With a = the sorted divisors of n and J[i] the end of the window anchored at
a[i] (a[J[i]] is the first divisor >= a[i] e^{1-1e-12}):

- Delta_2 is the largest run J[i] - i.
- Delta_3 is the largest box sum of the table M[k, j] = [a[j] | n / a[k]]
  over rows [i, J[i]) times columns [j, J[j]), read off 2-D prefix sums.
- Delta_4 enumerates coordinate by coordinate over a shrinking multiset of
  cofactors (``_best_windows``).

The witness is the first anchor row attaining the maximum and, within it,
the first anchor column that divides some cofactor of the row window, so all
three routes give the same witness as the coordinate enumeration.

Work cap.  Every route, :func:`delta_r` and the range functions alike,
charges each n the divisor tuples of the coordinate enumeration against one
fresh cap, so each n is answered or refused the same way on every route.
For r = 2 the charge is tau(n).  For r = 3 it is computed exactly before any
table is built, and an n is refused only where that charge exceeds the cap;
as the charge is at most tau^2 + tau^3, only the n with
(1 + tau) tau^2 > cap are charged exactly.  For r = 4 the enumeration
charges as it runs and stops once past the cap.

Range layer.  For r = 2 and 3 there is one route: :func:`delta_r` runs it
on a one-row block of divisors(n), and the range functions
(:func:`iter_delta_values`, :func:`delta_short_sum`,
:func:`delta_weighted_prefix`) on blocks of consecutive n.  A block is one
CSR array: ``a[offsets[i]:offsets[i + 1]]`` are the sorted divisors of its
i-th n.  A range block is sieved in numpy with only d <= sqrt(hi), its
(row, d) pairs put row-major by a radix sort, so a window (x, x+y] costs
about y tau + sqrt(x) work, in blocks of bounded memory; the range
functions take the values a block at a time.  The window ends J of the
whole block come from one searchsorted on the integer key row * stride + a,
against the integer threshold t = ceil(a * _E_TOP) - 1: an integer d is
below the float a * _E_TOP exactly when d <= t, so J stays exact past 2^53.
Delta_2 is a per-row maximum of J - i.  Delta_3 stacks the rows of equal
tau and takes the box maxima of the whole stack at once, from an int32
prefix table held transposed, so that both window differences gather whole
rows.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .arith import evaluate_point, factorize
from .errors import PreconditionError, WorkCapError
from .specs import MAX_N, tau_m

__all__ = [
    "DeltaValue",
    "WORK_CAP",
    "divisors",
    "delta_r",
    "delta_r_grid_oracle",
    "window_tuple_count",
    "dyadic_divisor_tau_sum",
    "dyadic_tau_delta_check",
    "iter_delta_values",
    "delta_short_sum",
    "delta_weighted_prefix",
]

#: Default cap on divisor tuples enumerated per call.
WORK_CAP = 10_000_000

#: Log-length of a window minus the anti-tie nudge.
_WINDOW_LEN = 1.0 - 1e-12

#: Multiplicative window top: a divisor window anchored at a covers [a, a*_E_TOP).
_E_TOP = math.exp(_WINDOW_LEN)

#: Left-edge offset of a candidate window anchored at a divisor.
_EDGE_NUDGE = 1e-12


@dataclass
class DeltaValue:
    """Exact Delta_r(n) together with maximizing window left endpoints."""

    n: int
    r: int
    value: int
    witness: tuple[float, ...]


def divisors(n: int) -> list[int]:
    """All divisors of n, sorted ascending."""
    if not (1 <= n <= MAX_N):
        raise PreconditionError(f"divisors requires 1 <= n <= 2^63-1, got {n}")
    divs = [1]
    for p, e in factorize(n):
        q = 1
        grown = []
        for _ in range(e):
            q *= p
            grown.extend(d * q for d in divs)
        divs.extend(grown)
    divs.sort()
    return divs


@functools.lru_cache(maxsize=64)
def _sorted_divisors(n: int) -> tuple[int, ...]:
    """divisors(n) as a tuple, kept for the dyadic scans over many N per n."""
    return tuple(divisors(n))


class _DivisorMap(dict):
    """Lazy map from each divisor m of n to its sorted divisors, given n's."""

    def __init__(self, full: list[int]) -> None:
        super().__init__({full[-1]: full, 1: [1]})
        self._full = full

    def __missing__(self, m: int) -> list[int]:
        ds = [d for d in self._full if m % d == 0]
        self[m] = ds
        return ds


def _last_coordinate_best(mult: dict[int, int], divmap) -> tuple[int, float]:
    """Best single window over the weighted multiset of divisors of mult keys."""
    agg: dict[int, int] = {}
    for m, c in mult.items():
        for d in divmap[m]:
            agg[d] = agg.get(d, 0) + c
    vals = sorted(agg)
    cum = [0]
    for v in vals:
        cum.append(cum[-1] + agg[v])
    best = -1
    best_at = 1
    for i, v in enumerate(vals):
        j = bisect_left(vals, v * _E_TOP)
        count = cum[j] - cum[i]
        if count > best:
            best = count
            best_at = v
    return best, math.log(best_at) - _EDGE_NUDGE


class _Budget:
    __slots__ = ("left",)

    def __init__(self, cap: int) -> None:
        self.left = cap

    def spend(self, amount: int) -> None:
        self.left -= amount
        if self.left < 0:
            raise WorkCapError("divisor tuple enumeration exceeded the work cap")


def _best_windows(
    mult: dict[int, int], coords: int, divmap, budget: _Budget
) -> tuple[int, tuple[float, ...]]:
    """Coordinate enumeration of the best windows; serves r = 4 (and tests)."""
    if coords == 1:
        budget.spend(sum(len(divmap[m]) for m in mult))
        count, u = _last_coordinate_best(mult, divmap)
        return count, (u,)
    cands = sorted({d for m in mult for d in divmap[m]})
    best = -1
    best_ws: tuple[float, ...] = ()
    for a in cands:
        top = a * _E_TOP
        sub: dict[int, int] = {}
        touched = 0
        for m, c in mult.items():
            ds = divmap[m]
            j = i = bisect_left(ds, a)
            while j < len(ds) and ds[j] < top:
                q = m // ds[j]
                sub[q] = sub.get(q, 0) + c
                j += 1
            touched += j - i
        budget.spend(touched)
        if not sub:
            continue
        count, ws = _best_windows(sub, coords - 1, divmap, budget)
        if count > best:
            best = count
            best_ws = (math.log(a) - _EDGE_NUDGE, *ws)
    return best, best_ws


def _cofactor_taus(ds: list[int]) -> list[int]:
    """tau(n / d) for each d in ds, the sorted divisors of n = ds[-1]."""
    m = ds[-1]
    fac = []
    for p in ds[1:]:
        if m == 1:
            break
        if m % p == 0:  # every smaller prime is already divided out: p is prime
            while m % p == 0:
                m //= p
            fac.append(p)
    taus = []
    for c in reversed(ds):  # n / ds[k] = ds[-1 - k]
        t = 1
        for p in fac:
            e = 1
            while c % p == 0:
                c //= p
                e += 1
            t *= e
        taus.append(t)
    return taus


def _charge3(ds: list[int], ends: list[int]) -> int:
    """Exact tuple count ``_best_windows`` charges for Delta_3 of ds[-1]."""
    cum = list(accumulate(_cofactor_taus(ds), initial=0))
    return sum(j - i + cum[j] - cum[i] for i, j in enumerate(ends))


def _window_tops(a: np.ndarray) -> np.ndarray:
    """t = ceil(a * _E_TOP) - 1 per entry: an int d has d < a * _E_TOP exactly when d <= t.

    The product is the float Python forms, so the integer test agrees with
    ``d < a * _E_TOP`` for every int64 d, also past 2^53; a top past 2^63 is
    clipped to 2^63 - 1, which no int64 d exceeds.
    """
    top = np.ceil(a * _E_TOP)
    np.minimum(top, 2.0**63, out=top)
    top = top.astype(np.uint64)
    top -= np.uint64(1)
    return top.view(np.int64)


def _block_ends(offsets: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Window ends J of every row of a CSR block: row i is a[offsets[i]:offsets[i + 1]].

    J[k] is the first index of k's row holding a value >= a[k] * _E_TOP (the
    row's end if none), found by one searchsorted on the key row * stride + a.
    The caller keeps rows * max(a) <= 2^63 - 1, so no key overflows.
    """
    stride = int(a.max())
    top = _window_tops(a)
    np.minimum(top, stride, out=top)
    key = np.repeat(np.arange(offsets.size - 1, dtype=np.int64) * stride, np.diff(offsets))
    top += key
    key += a
    return np.searchsorted(key, top, side="right")


def _first_refused(offsets: np.ndarray, a: np.ndarray, ends: np.ndarray, r: int, cap: int):
    """(i, error) for the first row whose Delta_r charge exceeds cap, else (rows, None).

    r = 2 is charged tau and r = 3 the exact ``_charge3``; as
    ``_charge3 <= tau^2 + tau^3``, only rows with (1 + tau) tau^2 > cap are
    charged exactly.
    """
    tau = np.diff(offsets)
    if r == 2:
        over = np.flatnonzero(tau > cap)
        if over.size:
            i = int(over[0])
            return i, WorkCapError(f"tau(n) = {tau[i]} exceeds the work cap {cap}")
    else:
        for i in np.flatnonzero((1 + tau) * tau**2 > cap).tolist():
            lo, hi = offsets[i], offsets[i + 1]
            if _charge3(a[lo:hi].tolist(), (ends[lo:hi] - lo).tolist()) > cap:
                return i, WorkCapError("divisor tuple enumeration exceeded the work cap")
    return tau.size, None


def _boxes3(A: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Delta_3 box sums of a stack of rows of equal tau: A the divisors, E the local ends.

    box[s, i, j] counts the pairs of row s with the first divisor in
    [A[i], A[J[i]]) and the second in [A[j], A[J[j]]).  The prefix table is
    held transposed, so both window differences gather whole rows.  Every
    count is at most tau_3(n) <= t^2, so the table is int32 up to t = 46340
    and int64 past it, where only a raised work cap lets a row through.
    """
    c, t = A.shape
    dtype = np.int32 if t * t <= np.iinfo(np.int32).max else np.int64
    # P[s, j, k] counts the pairs (k' < k, j' < j) with A[j'] | n / A[k'] = A[t-1-k'].
    P = np.zeros((c, t + 1, t + 1), dtype=dtype)
    inner = P[:, 1:, 1:]
    np.cumsum(A[:, None, ::-1] % A[:, :, None] == 0, axis=2, dtype=dtype, out=inner)
    np.cumsum(inner, axis=1, out=inner)
    s = np.arange(c)[:, None]
    Q = P[s, E]  # Q[s, j, k]: second in [j, J[j]), first below k
    Q -= P[:, :t]
    del P, inner
    Q = Q.transpose(0, 2, 1).copy()
    box = Q[s, E]
    box -= Q[:, :t]
    return box


def _block_deltas(offsets: np.ndarray, a: np.ndarray, r: int, cap: int):
    """Delta_r of the rows of a CSR block, up to the first row refused under cap.

    Returns the values of the rows before that row, as ints, and its
    :class:`WorkCapError` (None when every row is answered).
    """
    if r == 4:
        values = []
        for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
            ds = a[lo:hi].tolist()
            try:
                values.append(_best_windows({ds[-1]: 1}, 3, _DivisorMap(ds), _Budget(cap))[0])
            except WorkCapError as err:
                return values, err
        return values, None
    ends = _block_ends(offsets, a)
    stop, err = _first_refused(offsets, a, ends, r, cap)
    starts = offsets[:stop]
    if r == 2:
        ends -= np.arange(ends.size)  # the run J[i] - i at each anchor
        return np.maximum.reduceat(ends, starts).tolist(), err
    tau = np.diff(offsets[: stop + 1])
    values = np.empty(stop, dtype=np.int64)
    for t in np.flatnonzero(np.bincount(tau)).tolist():
        group = np.flatnonzero(tau == t)
        step = max(1, _STACK // (t * t))
        for k in range(0, group.size, step):
            rows = group[k : k + step]
            base = starts[rows, None]
            idx = base + np.arange(t)
            box = _boxes3(a[idx], ends[idx] - base)
            values[rows] = box.reshape(rows.size, -1).max(1)
    return values.tolist(), err


def delta_r(n: int, r: int, *, work_cap: int | None = None) -> DeltaValue:
    """Exact Delta_r(n) with a maximizing witness, r in {2, 3, 4}.

    Refuses with :class:`WorkCapError` when the divisor tuples charged exceed
    ``work_cap`` (default :data:`WORK_CAP`), by the rule every range function
    applies to each n: exactly, before any table, for r = 2 and 3; as the
    enumeration runs for r = 4.
    """
    cap = WORK_CAP if work_cap is None else work_cap
    if r not in (2, 3, 4):
        raise PreconditionError(f"delta_r supports r in {{2, 3, 4}}, got {r}")
    if not (1 <= n <= MAX_N):
        raise PreconditionError(f"delta_r requires 1 <= n <= 2^63-1, got {n}")
    ds = divisors(n)
    if r == 4:
        value, witness = _best_windows({n: 1}, 3, _DivisorMap(ds), _Budget(cap))
        return DeltaValue(n, r, value, witness)
    offsets = np.array([0, len(ds)])
    a = np.array(ds, dtype=np.int64)
    ends = _block_ends(offsets, a)
    _, err = _first_refused(offsets, a, ends, r, cap)
    if err is not None:
        raise err
    if r == 2:
        run = ends - np.arange(a.size)
        i = int(run.argmax())
        return DeltaValue(n, r, int(run[i]), (math.log(ds[i]) - _EDGE_NUDGE,))
    box = _boxes3(a[None], ends[None])[0]
    row_best = box.max(1)
    i = int(row_best.argmax())
    best = int(row_best[i])
    # first best column of row i whose own column count is nonzero: a[j]
    # divides some cofactor n / a[k] = a[-1 - k] with k in [i, J[i])
    live = (a[::-1][i : ends[i], None] % a == 0).any(0)
    j = int(((box[i] == best) & live).argmax())
    return DeltaValue(n, r, best, (math.log(ds[i]) - _EDGE_NUDGE, math.log(ds[j]) - _EDGE_NUDGE))


def window_tuple_count(n: int, u: tuple[float, ...]) -> int:
    """Direct recount of divisor tuples inside the windows (e^{u_i}, e^{u_i+1}]."""
    divmap = _DivisorMap(divisors(n))

    def rec(m: int, i: int) -> int:
        if i == len(u):
            return 1
        lo, hi = u[i], u[i] + 1.0
        total = 0
        for d in divmap[m]:
            ld = math.log(d)
            if lo < ld <= hi:
                total += rec(m // d, i + 1)
        return total

    return rec(n, 0)


def _grid_representatives(logs: list[float], step: float, u_max: float) -> list[float]:
    """One grid point per piece of constancy of the window content on [-1, u_max].

    The content of (e^u, e^{u+1}] changes only at u = log d and u = log d - 1;
    between consecutive breakpoints every grid point sees the same count, so
    the grid maximum is the maximum over one representative per piece that
    actually contains a grid point.
    """
    bps = {-1.0, u_max}
    for lv in logs:
        if -1.0 < lv < u_max:
            bps.add(lv)
        if -1.0 < lv - 1.0 < u_max:
            bps.add(lv - 1.0)
    bp = sorted(bps)
    reps: list[float] = []
    for i in range(len(bp)):
        start = bp[i]
        end = bp[i + 1] if i + 1 < len(bp) else u_max + step
        j = math.ceil((start + 1.0) / step - 1e-12)
        u = -1.0 + j * step
        if u < start:
            u += step
        if u < end and u <= u_max + 1e-15:
            reps.append(u)
    return reps


def delta_r_grid_oracle(n: int, r: int, grid_step: float = 1e-4) -> int:
    """Maximum window count over the finite grid u_i = -1 + j*grid_step.

    A lower bound of Delta_r(n) that matches it once the step is below the
    smallest gap between the breakpoints of the count; evaluated exactly by
    scanning one grid representative per piece of constancy.
    """
    if grid_step > 1e-3:
        raise PreconditionError(f"grid oracle requires step <= 1e-3, got {grid_step}")
    if r not in (2, 3):
        raise PreconditionError(f"grid oracle supports r in {{2, 3}}, got {r}")
    if n < 1:
        raise PreconditionError(f"grid oracle requires n >= 1, got {n}")
    divmap = _DivisorMap(divisors(n))
    divs = divmap[n]
    logs = [math.log(d) for d in divs]
    u_max = math.log(n)
    reps = _grid_representatives(logs, grid_step, u_max)
    if r == 2:
        best = 0
        for u in reps:
            i = bisect_right(logs, u)
            j = bisect_right(logs, u + 1.0)
            best = max(best, j - i)
        return best
    sub_logs: dict[int, list[float]] = {}
    best = 0
    seen: set[tuple[int, int]] = set()
    for u1 in reps:
        i = bisect_right(logs, u1)
        j = bisect_right(logs, u1 + 1.0)
        if (i, j) in seen or i == j:
            continue
        seen.add((i, j))
        inner = divs[i:j]
        for q in (n // d for d in inner):
            if q not in sub_logs:
                sub_logs[q] = [math.log(t) for t in divmap[q]]
        for u2 in reps:
            count = 0
            for d in inner:
                ls = sub_logs[n // d]
                count += bisect_right(ls, u2 + 1.0) - bisect_right(ls, u2)
            best = max(best, count)
    return best


def dyadic_divisor_tau_sum(n: int, r: int, N: int) -> int:
    """Sum of tau_r(d) over divisors d of n with N < d <= 2N (tau_1 = 1)."""
    if r < 1 or n < 1 or N < 1:
        raise PreconditionError("dyadic divisor sum requires n, r, N >= 1")
    divs = _sorted_divisors(n)
    i = bisect_right(divs, N)
    j = bisect_right(divs, 2 * N)
    if r == 1:
        return j - i
    spec = tau_m(r)
    return sum(evaluate_point(spec, d) for d in divs[i:j])


def dyadic_tau_delta_check(
    n: int, r: int, N: int, *, delta_value: int | None = None
) -> tuple[int, float, bool]:
    """Compare the dyadic divisor tau_r sum against (log 2eN)^(r-1) Delta_{r+1}(n).

    Returns (lhs, rhs, lhs <= rhs).  ``delta_value`` short-circuits the Delta
    computation when the caller already holds it (exhaustive scans reuse one
    Delta_{r+1}(n) across many N).
    """
    if r not in (1, 2, 3):
        raise PreconditionError(f"bound check supports r in {{1, 2, 3}}, got {r}")
    lhs = dyadic_divisor_tau_sum(n, r, N)
    dv = delta_value if delta_value is not None else delta_r(n, r + 1).value
    rhs = math.log(2 * math.e * N) ** (r - 1) * dv
    return lhs, rhs, lhs <= rhs


# ---------------------------------------------------------------------------
# Delta sums over ranges
# ---------------------------------------------------------------------------

_BLOCK = 1 << 14

#: Most table entries in one stack of Delta_3 rows.
_STACK = 1 << 15


def _divisor_block(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR divisors of n in [lo, hi]: row n - lo is a[offsets[n - lo]:offsets[n - lo + 1]], sorted.

    Only d <= sqrt(hi) is sieved, as (row, d) pairs; each row's larger
    divisors are the cofactors n // d in reverse, the square root once.  The
    pairs go row-major by a stable argsort of the rows cast to the smallest
    unsigned type that holds hi - lo: uint16 for a block of at most _BLOCK
    rows, where numpy's stable sort is a radix sort.
    """
    d = np.arange(1, math.isqrt(hi) + 1, dtype=np.int64)
    first = np.maximum(-(-lo // d) * d, d * d) - lo  # row of the first multiple
    count = np.maximum((hi - lo - first) // d + 1, 0)
    dd = np.repeat(d, count)
    row = np.repeat(first - (np.cumsum(count) - count) * d, count)
    row += np.arange(dd.size) * dd
    # row-major, d ascending in each row
    order = np.argsort(row.astype(np.min_scalar_type(hi - lo)), kind="stable")
    row = row[order]
    dd = dd[order]
    del order
    small = np.bincount(row, minlength=hi - lo + 1)
    tau = 2 * small
    tau[row[dd * dd == row + lo]] -= 1
    offsets = np.zeros(tau.size + 1, dtype=np.int64)
    np.cumsum(tau, out=offsets[1:])
    # the k-th small divisor of a row goes to offsets[row] + k and its cofactor
    # to offsets[row + 1] - 1 - k; a square root's cofactor lands on its own slot
    at = (offsets[:-1] - np.cumsum(small) + small)[row] + np.arange(dd.size)
    a = np.empty(offsets[-1], dtype=np.int64)
    a[at] = dd
    np.subtract((offsets[:-1] + offsets[1:] - 1)[row], at, out=at)
    row += lo  # n, then in place its cofactor n // d
    row //= dd
    a[at] = row
    return offsets, a


def _delta_blocks(lo: int, hi: int, r: int):
    """Yield (start, values) per block of [lo, hi]: values[k] is Delta_r(start + k).

    Each n is under its own WORK_CAP; a refused n ends its block's values
    and is raised once they are yielded.
    """
    if r not in (2, 3, 4):
        raise PreconditionError(f"Delta_r ranges support r in {{2, 3, 4}}, got {r}")
    cap = WORK_CAP
    size = min(_BLOCK, MAX_N // max(hi, 1))  # keeps _block_ends' keys inside int64
    for start in range(lo, hi + 1, size):
        values, err = _block_deltas(*_divisor_block(start, min(start + size - 1, hi)), r, cap)
        yield start, values
        if err is not None:
            raise err


def _range_deltas(lo: int, hi: int, r: int):
    """Yield (n, Delta_r(n)) over [lo, hi], each n under its own WORK_CAP."""
    for start, values in _delta_blocks(lo, hi, r):
        yield from zip(range(start, start + len(values)), values)


def iter_delta_values(lo: int, hi: int, r: int):
    """Yield (n, Delta_r(n)) over [lo, hi] from CSR divisor blocks.

    Gives the values of :func:`delta_r` (r in {2, 3, 4}) in about
    (hi - lo) tau + sqrt(hi) work, and refuses an n exactly where
    :func:`delta_r` at :data:`WORK_CAP` does.
    """
    if not (1 <= lo <= hi):
        raise PreconditionError(f"delta iteration requires 1 <= lo <= hi, got [{lo}, {hi}]")
    yield from _range_deltas(lo, hi, r)


def delta_short_sum(r: int, x: int, y: int) -> int:
    """Exact sum of Delta_r(n) over the window (x, x+y]; x = 0 sums a prefix.

    Costs about y tau + sqrt(x) work; the work cap applies per n, as in
    :func:`iter_delta_values`.  Each block's values are summed as one list.
    """
    if x < 0 or y < 0:
        raise PreconditionError("delta_short_sum requires x >= 0 and y >= 0")
    return sum(sum(values) for _, values in _delta_blocks(x + 1, x + y, r))


def delta_weighted_prefix(r: int, x: int) -> float:
    """Exact sum of Delta_r(n)/n over n <= x.

    Costs about x tau work in blocks of bounded memory; the work cap applies
    per n, as in :func:`iter_delta_values`.
    """
    if x < 1:
        raise PreconditionError(f"delta prefix requires x >= 1, got {x}")
    return math.fsum(v / n for n, v in _range_deltas(1, x, r))
