"""Dirichlet's hyperbola method, long form and short-interval form.

Both forms are one two-leg split.  With D = floor(T), each pair (d, k) with
x < dk <= x+y has d <= D or d > D, so for 0 <= x and 1 <= T <= x+y

    sum over x < n <= x+y of (f * g)(n)
        =   sum over d <= D of f(d) (window sum of g on (x/d, (x+y)/d])
          + sum over k <= (x+y)/T of g(k) (window sum of f on (max(x/k, D), (x+y)/k])

with every window end floored.  The short form asks 1 <= max(y, x/y) <= T
<= x.  Then x/k >= T for k <= x/T, so those windows are (x/k, (x+y)/k], and
the interval (x/T, (x+y)/T] holds at most one integer k0 = floor((x+y)/T).
The k-leg's last window, (D, (x+y)/k0], is then the boundary term: g(k0)
times the f-sum over it, reported apart from the k <= x/T of ``term_k``.  It
vanishes when the interval holds no integer or (x+y)/T is itself an
integer.  The long form is the same split at x = 0, a sum over n <= x with
no correction term.  The split is an identity, not an estimate, and the
tests hold it to exact equality on integer-valued inputs.

T is a real parameter.  All floor comparisons against T go through exact
rational arithmetic (a float is a dyadic rational), so boundary cases are
classified exactly and the identity survives adversarial T.

Both legs are one routine with f and g swapped: ``_leg`` takes the v <= V
with a(v) != 0 from a's prefix table and the b-sums on their windows from one
``arith._window_sums`` call, as differences of a prefix table up to its cap
and as one window each past it.  arith refuses a prefix table past its cap,
so a T too large, or a long-form x past it, exits 4.
``asymptotics.tail_window_sum_check`` sums through the same leg.  Integer
legs and boundary terms are exact Python ints on every route, and a zero one
has the type of its leg; ``arith._dot`` reads both off the dtypes of the two
arrays it sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith
from .errors import PreconditionError
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
    ``k_count = floor(x/T)`` are the index ranges of ``term_d`` and
    ``term_k``; the boundary adds at most one index (T + x/T work, not x).
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
        return Fraction(T)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"T must be a finite real number, got {T!r}") from exc


def _leg(a: FuncSpec, b: FuncSpec, x: int, top: int, V: int, D: int):
    """The v <= V with a(v) != 0, those a(v), and the b-sums on (max(x // v, D), top // v]."""
    av = arith.prefix_values(a, V)
    v = np.flatnonzero(av)
    return v, av[v], arith._window_sums(b, np.maximum(x // v, D), top // v)


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
    top = x + y
    _, fd, gs = _leg(f, g, x, top, D, 0)
    k, gk, fs = _leg(g, f, x, top, top // Tq, D)
    # past K the k-leg holds at most one window: the boundary's, k0
    cut = np.searchsorted(k, K, side="right")
    term_d, term_k = arith._dot(fd, gs), arith._dot(gk[:cut], fs[:cut])
    boundary = arith._dot(gk[cut:], fs[cut:])
    total = term_d + term_k + boundary
    return HyperbolaDecomposition(term_d, term_k, boundary, total, float(Tq), x, y, D, K)


def long_hyperbola(f: FuncSpec, g: FuncSpec, x: int, T):
    """Exact prefix identity: sum of (f*g)(n) over n <= x, split at T."""
    if x < 1:
        raise PreconditionError(f"long hyperbola requires x >= 1, got {x}")
    Tq = _as_fraction(T)
    if not (1 <= Tq <= x):
        raise PreconditionError(f"long hyperbola requires 1 <= T <= x, got T = {T}")
    D = math.floor(Tq)
    # f's table built at x first: both legs read it, and an x past the cap is refused
    arith.prefix_sums(f, x)
    _, fd, gs = _leg(f, g, 0, x, D, 0)
    _, gk, fs = _leg(g, f, 0, x, x // Tq, D)
    return arith._dot(fd, gs) + arith._dot(gk, fs)


def sawtooth_block_sum(f: FuncSpec, N: int, x: int, y: int) -> float:
    """Sum of f(n) (psi((x+y)/n) - psi(x/n)) over the dyadic block N < n <= 2N.

    Requires y < N <= x.  The values of f on the block are one window
    (``arith.sieve_range``), so only the segment cap limits N.  The sawtooth
    differences are evaluated through integer remainders, so the jump
    locations are classified exactly.
    """
    if not (0 <= y < N <= x):
        raise PreconditionError(
            f"block sum requires 0 <= y < N <= x, got N = {N}, x = {x}, y = {y}"
        )
    if y == 0:
        return 0.0
    fv = arith.sieve_range(f, N + 1, 2 * N).values.astype(np.float64)
    return _sawtooth_sum(fv, np.arange(N + 1, 2 * N + 1, dtype=np.int64), x, y)


def _sawtooth_sum(fv: np.ndarray, n_arr: np.ndarray, x: int, y: int) -> float:
    """Sum of fv (psi((x+y)/n) - psi(x/n)) over n in ``n_arr``, fv as float64."""
    frac_hi = ((x + y) % n_arr) / n_arr
    frac_lo = (x % n_arr) / n_arr
    return float(np.sum(fv * (frac_hi - frac_lo)))
