"""Dirichlet's hyperbola method, long form and short-interval form.

The short form rewrites a window sum of a convolution exactly:

    sum over x < n <= x+y of (f * g)(n)
        =   sum over d <= T of f(d) (window sum of g on (x/d, (x+y)/d])
          + sum over k <= x/T of g(k) (window sum of f on (x/k, (x+y)/k])
          + boundary term

provided 1 <= max(y, x/y) <= T <= x.  Under that hypothesis the interval
(x/T, (x+y)/T] contains at most one integer k0 = floor((x+y)/T), and the
boundary term equals g(k0) times the f-sum over (T, (x+y)/k0]; it vanishes
whenever the interval holds no integer or (x+y)/T is itself an integer.
The split is an identity, not an estimate, and the tests hold it to exact
equality on integer-valued inputs.

T is a real parameter.  All floor comparisons against T go through exact
rational arithmetic (a float is a dyadic rational), so boundary cases are
classified exactly and the identity survives adversarial T.

Both legs are one sum with f and g swapped: ``_leg(a, b, ...)`` adds a(v)
times the b-sum on (x/v, (x+y)/v] over the v <= V with a(v) != 0.  The inner
b-sums are read from a prefix table when x+y <= ``arith.PREFIX_WINDOW_MAX``
and come from ``short_sum_bruteforce``, one window per v, above it.  The long
identity and ``asymptotics.tail_window_sum_check`` sum through the same leg.
Integer legs are exact Python ints on every route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith
from .errors import PreconditionError, SegmentCapError
from .specs import FuncSpec

__all__ = [
    "HyperbolaDecomposition",
    "psi",
    "nearest_int_dist",
    "short_hyperbola",
    "long_hyperbola",
    "sawtooth_block_sum",
]

def psi(t: float) -> float:
    """First Bernoulli (sawtooth) function t - floor(t) - 1/2, in [-1/2, 1/2)."""
    return t - math.floor(t) - 0.5


def nearest_int_dist(t: float) -> float:
    """Distance from t to the nearest integer, in [0, 1/2]."""
    fr = t - math.floor(t)
    return min(fr, 1.0 - fr)


@dataclass
class HyperbolaDecomposition:
    """The three exact components of the short-interval hyperbola identity.

    ``total = term_d + term_k + boundary_term`` holds exactly, and equals the
    windowed sum of the convolution.  ``d_count = floor(T)`` and
    ``k_count = floor(x/T)`` are the index ranges of the two legs (T + x/T
    work, not x).
    """

    term_d: object
    term_k: object
    boundary_term: object
    total: object
    T: float
    x: int
    y: int
    d_count: int
    k_count: int


def _as_fraction(T) -> Fraction:
    try:
        q = Fraction(T)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"T must be a real number, got {T!r}") from exc
    return q


def _window_sums(b: FuncSpec, x: int, top: int, v: np.ndarray) -> np.ndarray:
    """Sums of b over the windows (x // v, top // v], one per entry of v."""
    lo, hi = x // v, top // v
    if b.kind == "one":
        return hi - lo
    if top <= arith.PREFIX_WINDOW_MAX:
        sums = arith.prefix_sums(b, top)
        return sums[hi] - sums[lo]
    return np.array(
        [arith.short_sum_bruteforce(b, int(l), int(h - l)) for l, h in zip(lo, hi)],
        dtype=object if b.integer_valued else np.float64,
    )


def _leg(a: FuncSpec, b: FuncSpec, x: int, top: int, V: int, isint: bool):
    """sum over v <= V of a(v) (b-sum on (x/v, top/v]), skipping a(v) = 0."""
    av = arith.prefix_values(a, V)
    v = np.flatnonzero(av)
    return _mixed_sum(av[v], _window_sums(b, x, top, v), isint)


def short_hyperbola(
    f: FuncSpec, g: FuncSpec, x: int, y: int, T
) -> HyperbolaDecomposition:
    """Exact short-interval hyperbola decomposition of sum (f*g)(n), x < n <= x+y."""
    if x < 1 or y < 1:
        raise PreconditionError(f"short hyperbola requires x, y >= 1, got {x}, {y}")
    Tq = _as_fraction(T)
    if Tq < y:
        raise PreconditionError(f"hypothesis y <= T violated: y = {y}, T = {T}")
    if Tq * y < x:
        raise PreconditionError(f"hypothesis x/y <= T violated: x/y = {x / y}, T = {T}")
    if Tq > x:
        raise PreconditionError(f"hypothesis T <= x violated: T = {T}, x = {x}")

    D = math.floor(Tq)
    K = x // Tq
    isint = f.integer_valued and g.integer_valued
    top = x + y
    if D > arith.PREFIX_WINDOW_MAX:
        raise SegmentCapError(
            f"d-leg table of {D} entries exceeds the prefix cap {arith.PREFIX_WINDOW_MAX};"
            " use a smaller T"
        )

    term_d = _leg(f, g, x, top, D, isint)
    term_k = _leg(g, f, x, top, K, isint)

    # boundary: the single integer the interval (x/T, (x+y)/T] can contain
    k0 = top // Tq
    if k0 > K:
        inner = arith.short_sum_bruteforce(f, D, top // k0 - D)
        boundary = arith.evaluate_point(g, k0) * inner
    else:
        boundary = 0 if isint else 0.0

    total = term_d + term_k + boundary
    if not isint:
        total = float(total)
        term_d, term_k, boundary = float(term_d), float(term_k), float(boundary)
    return HyperbolaDecomposition(term_d, term_k, boundary, total, float(Tq), x, y, D, K)


def _mixed_sum(a: np.ndarray, b: np.ndarray, isint: bool):
    if isint:
        if a.dtype == object or b.dtype == object:
            return sum(int(u) * int(v) for u, v in zip(a, b))
        bound = (
            int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) * (len(a) + 1)
        )
        if bound < 1 << 62:
            return int(np.sum(a * b, dtype=np.int64))
        return sum(int(u) * int(v) for u, v in zip(a, b))
    return float(np.sum(a.astype(np.float64) * b.astype(np.float64)))


def long_hyperbola(f: FuncSpec, g: FuncSpec, x: int, T):
    """Exact prefix identity: sum of (f*g)(n) over n <= x, split at T."""
    if x < 1:
        raise PreconditionError(f"long hyperbola requires x >= 1, got {x}")
    Tq = _as_fraction(T)
    if not (1 <= Tq <= x):
        raise PreconditionError(f"long hyperbola requires 1 <= T <= x, got T = {T}")
    if x > arith.PREFIX_WINDOW_MAX:
        raise SegmentCapError(
            f"long hyperbola prefix tables capped at {arith.PREFIX_WINDOW_MAX}, got x = {x}"
        )
    D = math.floor(Tq)
    K = x // Tq
    isint = f.integer_valued and g.integer_valued
    # both tables built at x first, so the legs' reads at D and K hit them
    FD, GK = arith.prefix_sums(f, x)[D], arith.prefix_sums(g, x)[K]
    corr = int(FD) * int(GK) if isint else float(FD) * float(GK)
    return _leg(f, g, 0, x, D, isint) + _leg(g, f, 0, x, K, isint) - corr


def sawtooth_block_sum(f: FuncSpec, N: int, x: int, y: int) -> float:
    """Sum of f(n) (psi((x+y)/n) - psi(x/n)) over the dyadic block N < n <= 2N.

    Requires y < N <= x.  The sawtooth differences are evaluated through
    integer remainders, so the jump locations are classified exactly.
    """
    if not (0 <= y < N <= x):
        raise PreconditionError(
            f"block sum requires 0 <= y < N <= x, got N = {N}, x = {x}, y = {y}"
        )
    if y == 0:
        return 0.0
    n_arr = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    fv = arith.prefix_values(f, 2 * N)[N + 1 : 2 * N + 1]
    frac_hi = ((x + y) % n_arr) / n_arr
    frac_lo = (x % n_arr) / n_arr
    return float(np.sum(fv.astype(np.float64) * (frac_hi - frac_lo)))
