"""Truncated Fourier expansion of the sawtooth and divisor-proximity sums.

The sawtooth admits the truncated expansion

    psi(t) ~ -sum_{h=1}^{H} sin(2 pi h t) / (pi h),

whose pointwise error is governed by min(1, 1/(H ||t||)), with ||t|| the
distance to the nearest integer.  This module evaluates the truncation, fits
its error envelope empirically, splits a dyadic sawtooth block sum into the
closed-form truncated-Fourier part plus a remainder, and computes the
tau-weighted proximity sums whose envelope the harness fits.

Implied constants are never assumed: every bound here is reported as an
:class:`EnvelopeFit` carrying the measured ratio of the exact left side to a
unit-constant envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import sieve_range
from .asymptotics import hooley_mean_exponent
from .errors import PreconditionError
from .hyperbola import _sawtooth_sum
from .specs import FuncSpec, tau_m

__all__ = [
    "EnvelopeFit",
    "truncated_psi",
    "psi_truncation_profile",
    "truncated_fourier_split",
    "tau_proximity_sum",
    "tau_proximity_envelope_fit",
]

_TWO_PI = 2.0 * math.pi


@dataclass
class EnvelopeFit:
    """Exact left sides against a unit-constant envelope on a parameter grid.

    ``fitted_constant`` is the largest observed ratio lhs/envelope; it is the
    empirical home of an implied constant.
    """

    envelope_id: str
    grid: list
    lhs_values: list[float]
    envelope_values: list[float]
    fitted_constant: float

    def __post_init__(self) -> None:
        if any(e <= 0.0 for e in self.envelope_values):
            raise PreconditionError("envelope values must be strictly positive")
        if self.fitted_constant < 0.0:
            raise PreconditionError("fitted constant must be nonnegative")


def truncated_psi(t: float, H: int) -> float:
    """Partial sawtooth Fourier sum -sum_{h<=H} sin(2 pi h t)/(pi h)."""
    if H < 1:
        raise PreconditionError(f"truncated_psi requires H >= 1, got {H}")
    return -math.fsum(
        math.sin(_TWO_PI * h * t) / (math.pi * h) for h in range(1, H + 1)
    )


def _truncated_psi_grid(t: np.ndarray, H: int) -> np.ndarray:
    out = np.zeros_like(t, dtype=np.float64)
    for h in range(1, H + 1):
        out -= np.sin(_TWO_PI * h * t) / (math.pi * h)
    return out


def psi_truncation_profile(H: int, t_grid) -> EnvelopeFit:
    """Fit |psi - truncated_psi| against min(1, 1/(H ||t||)) over a grid.

    The grid must stay at least 1e-6 away from the integers, where the
    sawtooth jumps and the pointwise comparison is meaningless.
    """
    if H < 1:
        raise PreconditionError(f"profile requires H >= 1, got {H}")
    t = np.asarray(list(t_grid), dtype=np.float64)
    fr = t - np.floor(t)
    dist = np.minimum(fr, 1.0 - fr)
    if t.size == 0:
        raise PreconditionError("profile requires a nonempty grid")
    if float(dist.min()) < 1e-6:
        raise PreconditionError("grid touches an integer closer than 1e-6")
    exact = fr - 0.5
    approx = _truncated_psi_grid(t, H)
    lhs = np.abs(exact - approx)
    env = np.minimum(1.0, 1.0 / (H * dist))
    ratios = lhs / env
    return EnvelopeFit(
        envelope_id="psi_truncation",
        grid=[float(v) for v in t],
        lhs_values=[float(v) for v in lhs],
        envelope_values=[float(v) for v in env],
        fitted_constant=float(ratios.max()),
    )


def truncated_fourier_split(
    f: FuncSpec, N: int, x: int, y: int, H: int
) -> tuple[float, float]:
    """Split the dyadic sawtooth block sum into integral term and remainder.

    The integral term is the closed form of
    -integral over (x, x+y] of sum_{0<|h|<=H} sum_{N<n<=2N} (f(n)/n) e(h t / n) dt,
    each (h, n) integral evaluated exactly; point values of e(.) use integer
    angle reduction mod n so the phase never loses accuracy.  The remainder is
    defined by subtraction from the exact block sum, so the two components
    always reconcile.
    """
    if not (0 <= y < N <= x):
        raise PreconditionError(
            f"fourier split requires 0 <= y < N <= x, got N = {N}, x = {x}, y = {y}"
        )
    if H < 1:
        raise PreconditionError(f"fourier split requires H >= 1, got {H}")
    if y == 0:
        return 0.0, 0.0
    if H * (x + y) > 2**62:
        raise PreconditionError("H (x+y) too large for exact angle reduction")
    # one sieve of the block serves the exact block sum and the modes
    n_arr = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    fv = sieve_range(f, N + 1, 2 * N).values.astype(np.float64)
    block = _sawtooth_sum(fv, n_arr, x, y)
    total = 0.0
    for h in range(1, H + 1):
        ang_hi = _TWO_PI * ((h * (x + y)) % n_arr) / n_arr
        ang_lo = _TWO_PI * ((h * x) % n_arr) / n_arr
        inner = float(np.sum(fv * (np.sin(ang_hi) - np.sin(ang_lo))))
        total += inner / (math.pi * h)
    integral_term = -total
    return integral_term, block - integral_term


def tau_proximity_sum(z, N: int, H: int, m: int) -> float:
    """Exact sum over N < n <= 2N of tau_m(n) min(1, 1/(H ||z/n||)).

    Hypothesis: 4 <= H <= N <= z.  Terms with ||z/n|| = 0 contribute exactly 1
    (the min clamps as the reciprocal diverges).
    """
    if not (4 <= H <= N <= z):
        raise PreconditionError(
            f"proximity sum requires 4 <= H <= N <= z, got H = {H}, N = {N}, z = {z}"
        )
    if m < 1:
        raise PreconditionError(f"proximity sum requires m >= 1, got {m}")
    n_arr = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    tv = sieve_range(tau_m(m), N + 1, 2 * N).values.astype(np.float64)
    if isinstance(z, int):
        fr = (z % n_arr) / n_arr
    else:
        fr = np.mod(float(z) / n_arr, 1.0)
    dist = np.minimum(fr, 1.0 - fr)
    with np.errstate(divide="ignore"):
        weight = np.minimum(1.0, 1.0 / (H * dist))
    weight[dist == 0.0] = 1.0
    return float(np.sum(tv * weight))


def tau_proximity_envelope_fit(grid) -> EnvelopeFit:
    """Fit proximity sums against N H^-1 log H (log N)^(m-1) (log z)^eps_{m+1}(z).

    ``grid`` iterates (z, N, H, m) tuples.  The power-of-z floor term of the
    bound is left out of the envelope, since its constant is unrelated.
    """
    pts = list(grid)
    if not pts:
        raise PreconditionError("envelope fit requires a nonempty grid")
    lhs, env = [], []
    for z, N, H, m in pts:
        lhs.append(tau_proximity_sum(z, N, H, m))
        e = (
            N
            / H
            * math.log(H)
            * math.log(N) ** (m - 1)
            * math.log(z) ** hooley_mean_exponent(z, m + 1)
        )
        env.append(e)
    fitted = max(l / e for l, e in zip(lhs, env))
    return EnvelopeFit(
        envelope_id="tau_proximity",
        grid=pts,
        lhs_values=lhs,
        envelope_values=env,
        fitted_constant=fitted,
    )
