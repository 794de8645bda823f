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

- Delta_2 is the longest run J[i] - i, found by a two-pointer sweep.
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
For r = 2 and 3 the charge is computed exactly before any table is built
(``tau(n)^2 > cap`` refuses r = 3 before the tau x tau table is allocated);
for r = 4 the enumeration charges as it runs and stops once past the cap.

Range functions (:func:`iter_delta_values`, :func:`delta_short_sum`,
:func:`delta_weighted_prefix`) sieve divisor lists blockwise with only
d <= sqrt(hi), so a window (x, x+y] costs about y tau + sqrt(x) work.
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


def _window_ends(ds: list[int]) -> list[int]:
    """J[i] = bisect_left(ds, ds[i] * _E_TOP): the window at ds[i] holds ds[i:J[i]]."""
    ends = []
    j = 0
    size = len(ds)
    for v in ds:
        top = v * _E_TOP
        while j < size and ds[j] < top:
            j += 1
        ends.append(j)
    return ends


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


def _delta(ds: list[int], r: int, cap: int) -> tuple[int, tuple[float, ...]]:
    """Delta_r(n) and its witness from the sorted divisors ds of n; cap per n."""
    if r == 4:
        return _best_windows({ds[-1]: 1}, 3, _DivisorMap(ds), _Budget(cap))
    size = len(ds)
    if size ** (r - 1) > cap:
        raise WorkCapError(f"tau(n)^(r-1) = {size ** (r - 1)} exceeds the work cap {cap}")
    ends = _window_ends(ds)
    if r == 2:
        best, at = 0, 0
        for i, j in enumerate(ends):
            if j - i > best:
                best, at = j - i, i
        return best, (math.log(ds[at]) - _EDGE_NUDGE,)
    if _charge3(ds, ends) > cap:
        raise WorkCapError("divisor tuple enumeration exceeded the work cap")
    a = np.array(ds, dtype=np.int64)
    rows = np.array(ends)
    # prefix[k, j] counts the pairs (k' < k, j' < j) with a[j'] | n / a[k'].
    prefix = np.zeros((size + 1, size + 1), dtype=np.int64)
    prefix[1:, 1:] = ((ds[-1] // a)[:, None] % a == 0).cumsum(0).cumsum(1)
    # cols[i, j]: pairs with row in [i, J[i]) and column < j.
    cols = prefix[rows] - prefix[:size]
    box = cols[:, rows] - cols[:, :size]
    row_best = box.max(1)
    i = int(row_best.argmax())
    best = int(row_best[i])
    # first best column of row i whose own column count is nonzero
    j = int(((box[i] == best) & (cols[i, 1:] > cols[i, :-1])).argmax())
    return best, (math.log(ds[i]) - _EDGE_NUDGE, math.log(ds[j]) - _EDGE_NUDGE)


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
    value, witness = _delta(divisors(n), r, cap)
    return DeltaValue(n, r, value, witness)


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

_BLOCK = 1 << 15


def _iter_divisor_lists(lo: int, hi: int):
    """Yield (n, sorted divisors of n) for n in [lo, hi], in blocks of _BLOCK.

    Only d <= sqrt(n) is sieved; each larger divisor is the cofactor n // d.
    """
    start = lo
    while start <= hi:
        stop = min(start + _BLOCK - 1, hi)
        small: list[list[int]] = [[] for _ in range(stop - start + 1)]
        for d in range(1, math.isqrt(stop) + 1):
            first = max(-(-start // d) * d, d * d)
            for i in range(first - start, stop - start + 1, d):
                small[i].append(d)
        for n, ds in enumerate(small, start):
            large = [n // d for d in reversed(ds)]
            if ds[-1] * ds[-1] == n:
                del large[0]
            yield n, ds + large
        start = stop + 1


def _range_deltas(lo: int, hi: int, r: int):
    """Yield (n, Delta_r(n)) over [lo, hi], each n under its own WORK_CAP."""
    if r not in (2, 3, 4):
        raise PreconditionError(f"Delta_r ranges support r in {{2, 3, 4}}, got {r}")
    for n, ds in _iter_divisor_lists(lo, hi):
        yield n, _delta(ds, r, WORK_CAP)[0]


def iter_delta_values(lo: int, hi: int, r: int):
    """Yield (n, Delta_r(n)) over [lo, hi] from blockwise divisor lists.

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
    :func:`iter_delta_values`.
    """
    if x < 0 or y < 0:
        raise PreconditionError("delta_short_sum requires x >= 0 and y >= 0")
    return sum(v for _, v in _range_deltas(x + 1, x + y, r))


def delta_weighted_prefix(r: int, x: int) -> float:
    """Exact sum of Delta_r(n)/n over n <= x.

    Costs about x tau work in blocks of bounded memory; the work cap applies
    per n, as in :func:`iter_delta_values`.
    """
    if x < 1:
        raise PreconditionError(f"delta prefix requires x >= 1, got {x}")
    return math.fsum(v / n for n, v in _range_deltas(1, x, r))
