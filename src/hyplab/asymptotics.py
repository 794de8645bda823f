"""Main terms, error envelopes, and the proof-path decomposition diagnostics.

A window sum of F over (x, x+y] is predicted by y a_s (log x)^(s+1) / (s+1),
where the hypothesis data (s, m, kappa, beta, delta, A, a_0..a_s) describe the
prefix behaviour z sum_j a_j (log z)^j + O(z^kappa (log ez)^beta) of the
transform f = F * mu and the pointwise bound |f(n)| <= A tau_m(n) (log en)^delta.

The error envelope attached to the prediction has three unit-constant terms:

    t1 = x y^(kappa-1) exp((kappa-1) (log x)^(1/4)) (log x)^beta
    t2 = y (log x)^max(s, delta + m - 1/2 + eps_{m+1}(x))
    t3 = x^epsilon

valid on the admissible window range

    x^(1/2) exp(-(1/2)(log x)^(1/4)) <= y <= x exp(-(log x)^(1/4)),

with eps_r(x) the slowly decaying exponent that also governs the logarithmic
mean of the Hooley Delta_r function.  When the prefix error is only known in
the z^(kappa+eps) form, t1 instead reads x y^(kappa-1+eps) e^((kappa-1+eps)(log x)^(1/4)).
A simpler envelope (from pairing the short hyperbola with the prefix
hypothesis directly, no Fourier step) is exposed alongside for comparison:
x y^(kappa-1) (log x)^beta + y (log x)^max(s, delta+m-1) + x^eps on y >= sqrt(x).

Implied constants are never asserted; experiment reports carry the measured
normalized errors and the residual scans fit their own constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import _dot, prefix_values, short_sum_bruteforce
from .errors import PreconditionError
from .hyperbola import _leg
from .specs import FuncSpec, one

__all__ = [
    "HypothesisData",
    "ExperimentRow",
    "ExperimentReport",
    "hooley_mean_exponent",
    "main_term",
    "admissible_y_range",
    "error_envelope",
    "error_envelope_simple",
    "proof_path_parameters",
    "reciprocal_prefix_check",
    "tail_window_sum_check",
    "tail_window_envelope",
    "log_power_sum_check",
    "run_short_sum_experiment",
    "euler_product",
    "zeta_int",
    "EULER_GAMMA",
]

E_E = math.exp(math.e)
EULER_GAMMA = float(np.euler_gamma)


@dataclass(frozen=True)
class HypothesisData:
    """Prefix and pointwise growth data of the transform f = F * mu.

    ``coefficients`` lists a_0 .. a_s; entries below the leading one may be
    None when no closed form is on record (only a_s enters the main term).
    """

    s: int
    m: int
    kappa: float
    beta: float
    delta: float
    bound_A: float
    coefficients: tuple

    def __post_init__(self) -> None:
        if self.s < 0 or self.m < 1:
            raise PreconditionError("hypothesis requires s >= 0 and m >= 1")
        if not (0.0 <= self.kappa < 1.0):
            raise PreconditionError(f"kappa must lie in [0, 1), got {self.kappa}")
        if self.beta < 0.0 or self.delta < 0.0:
            raise PreconditionError("beta and delta must be nonnegative")
        if self.bound_A <= 0.0:
            raise PreconditionError("the pointwise bound constant must be positive")
        if len(self.coefficients) != self.s + 1:
            raise PreconditionError("need exactly s + 1 coefficients a_0 .. a_s")
        if self.leading == 0.0:
            raise PreconditionError("the leading coefficient a_s must not vanish")

    @property
    def leading(self) -> float:
        a_s = self.coefficients[-1]
        if a_s is None:
            raise PreconditionError("the leading coefficient a_s must be set")
        return float(a_s)


def hooley_mean_exponent(x: float, r: int) -> float:
    """The decay exponent sqrt(r logloglog x / loglog x)(r - 1 + 30/logloglog x).

    Defined for x > e^e; it blows up as x decreases to e^e and tends to zero
    extremely slowly as x grows.
    """
    if r < 2:
        raise PreconditionError(f"mean exponent requires r >= 2, got {r}")
    if not x > E_E:
        raise PreconditionError(f"mean exponent requires x > e^e, got {x}")
    ll = math.log(math.log(x))
    lll = math.log(ll)
    if lll <= 0.0:
        raise PreconditionError(f"mean exponent requires logloglog x > 0, got x = {x}")
    return math.sqrt(r * lll / ll) * (r - 1 + 30.0 / lll)


def main_term(h: HypothesisData, x, y) -> float:
    """Predicted window sum y a_s (log x)^(s+1) / (s+1)."""
    if not x > E_E:
        raise PreconditionError(f"main term requires x > e^e, got {x}")
    if y < 0:
        raise PreconditionError(f"main term requires y >= 0, got {y}")
    return y * h.leading * math.log(x) ** (h.s + 1) / (h.s + 1)


def admissible_y_range(x) -> tuple[float, float]:
    """Window lengths the three-term envelope covers at this x."""
    if not x > E_E:
        raise PreconditionError(f"admissible range requires x > e^e, got {x}")
    root = math.log(x) ** 0.25
    return math.sqrt(x) * math.exp(-0.5 * root), x * math.exp(-root)


def _check_envelope_args(h, x, y, epsilon) -> None:
    if not (0.0 < epsilon <= 0.5):
        raise PreconditionError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    y_min, y_max = admissible_y_range(x)
    if y < y_min:
        raise PreconditionError(
            f"y = {y} below the admissible lower bound {y_min:.6g} at x = {x}"
        )
    if y > y_max:
        raise PreconditionError(
            f"y = {y} above the admissible upper bound {y_max:.6g} at x = {x}"
        )


def error_envelope(
    h: HypothesisData,
    x,
    y,
    epsilon: float,
    *,
    kappa_carries_eps: bool = False,
) -> tuple[float, float, float]:
    """The three unit-constant envelope terms (t1, t2, t3) at (x, y)."""
    _check_envelope_args(h, x, y, epsilon)
    return _envelope_terms(h, x, y, epsilon, kappa_carries_eps)


def _envelope_terms(h, x, y, epsilon, kappa_carries_eps):
    lx = math.log(x)
    root = lx**0.25
    if kappa_carries_eps:
        expo = h.kappa - 1 + epsilon
        t1 = x * y**expo * math.exp(expo * root)
    else:
        t1 = x * y ** (h.kappa - 1) * math.exp((h.kappa - 1) * root) * lx**h.beta
    t2 = y * lx ** max(h.s, h.delta + h.m - 0.5 + hooley_mean_exponent(x, h.m + 1))
    t3 = x**epsilon
    return t1, t2, t3


def error_envelope_simple(
    h: HypothesisData, x, y, epsilon: float
) -> tuple[float, float, float]:
    """The cruder no-Fourier envelope, valid for sqrt(x) <= y <= x."""
    if not (0.0 < epsilon <= 0.5):
        raise PreconditionError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    if not math.sqrt(x) <= y <= x:
        raise PreconditionError(
            f"simple envelope requires sqrt(x) <= y <= x, got x = {x}, y = {y}"
        )
    lx = math.log(x)
    t1 = x * y ** (h.kappa - 1) * lx**h.beta
    t2 = y * lx ** max(h.s, h.delta + h.m - 1)
    return t1, t2, x**epsilon


def proof_path_parameters(x, y) -> tuple[float, int]:
    """The split point T = y exp((log x)^(1/4)) and the mode count H = 4 floor(T/y).

    H follows the dyadic-block rule 4 floor(N/y) evaluated at the top block
    N = T; both are recorded as experiment metadata.
    """
    T = y * math.exp(math.log(x) ** 0.25)
    return T, 4 * int(T / y)


# ---------------------------------------------------------------------------
# proof-path decomposition checks
# ---------------------------------------------------------------------------


def reciprocal_prefix_check(
    f: FuncSpec, h: HypothesisData, T: int
) -> tuple[float, float, float]:
    """Compare sum_{d<=T} f(d)/d against a_s (log T)^(s+1)/(s+1).

    Returns (value, prediction, residual); |residual| is expected to stay
    within a bounded multiple of (log T)^s.
    """
    if T < 2:
        raise PreconditionError(f"reciprocal prefix requires T >= 2, got {T}")
    vals = prefix_values(f, T)[1:].astype(np.float64)
    value = float(np.sum(vals / np.arange(1, T + 1, dtype=np.float64)))
    prediction = h.leading * math.log(T) ** (h.s + 1) / (h.s + 1)
    return value, prediction, value - prediction


def tail_window_sum_check(
    f: FuncSpec, h: HypothesisData, x: int, y: int, T
) -> tuple[float, float, float]:
    """Compare the k-leg sum_{k<=x/T} (f-window on (x/k, (x+y)/k]) to its prediction.

    Prediction: (y a_s/(s+1)) ((log x)^(s+1) - (log T)^(s+1)).  The residual is
    judged against :func:`tail_window_envelope`.
    """
    Tq = Fraction(T)
    if not (max(y, Fraction(x, y)) <= Tq <= x):
        raise PreconditionError(
            f"tail window requires max(y, x/y) <= T <= x, got T = {T}"
        )
    K = int(x // Tq)
    _, ones, sums = _leg(one(), f, x, x + y, K, 0)
    value = float(_dot(ones, sums))
    prediction = (
        y * h.leading / (h.s + 1) * (math.log(x) ** (h.s + 1) - math.log(T) ** (h.s + 1))
    )
    return value, prediction, value - prediction


def tail_window_envelope(h: HypothesisData, x, y, T) -> float:
    """Unit-constant residual envelope y (log x)^s + x T^(kappa-1) (log x)^beta."""
    lx = math.log(x)
    return y * lx**h.s + x * float(T) ** (h.kappa - 1) * lx**h.beta


def log_power_sum_check(x, z, j: int) -> tuple[float, float, float]:
    """Compare sum_{k<=z} (log(x/k))^j / k with its closed-form prediction.

    Prediction: ((log x)^(j+1) - (log(x/z))^(j+1)) / (j+1); the residual is
    expected to stay within a bounded multiple of (log x)^j.
    """
    if not (1 <= z <= x):
        raise PreconditionError(f"log power sum requires 1 <= z <= x, got z = {z}")
    if not (0 <= j <= 6):
        raise PreconditionError(f"log power sum supports 0 <= j <= 6, got {j}")
    zi = int(z)
    k = np.arange(1, zi + 1, dtype=np.float64)
    lhs = float(np.sum(np.log(x / k) ** j / k))
    rhs = (math.log(x) ** (j + 1) - math.log(x / z) ** (j + 1)) / (j + 1)
    return lhs, rhs, lhs - rhs


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRow:
    x: int
    y: int
    exact: object
    main: float
    abs_err: float
    env1: float
    env2: float
    env3: float
    norm_err: float
    admissible: bool
    T: float
    H: int
    alt_env1: float | None = None


@dataclass
class ExperimentReport:
    entry_id: str
    epsilon: float
    y_rule: str
    rows: list[ExperimentRow] = field(default_factory=list)


def _ys_for(x, y_rule):
    y_min, y_max = admissible_y_range(x)
    geo = int(round(math.sqrt(y_min * y_max)))
    if y_rule == "geomean":
        return [geo]
    if y_rule == "default":
        lo = int(math.ceil(1.05 * y_min))
        hi = int(math.floor(0.95 * y_max))
        return sorted({lo, geo, hi})
    raise PreconditionError(f"unknown y rule {y_rule!r}")


def run_short_sum_experiment(
    entry,
    x_grid,
    y_rule="geomean",
    epsilon: float = 0.25,
) -> ExperimentReport:
    """Exact window sums against prediction and envelope over an x grid.

    ``entry`` is a registry entry (F_spec, hypothesis, envelope flags).
    ``y_rule`` is "geomean", "default" (geometric mean plus near-endpoints),
    or an explicit list of window lengths applied at every x.  Inadmissible
    (x, y) pairs are evaluated and flagged, never dropped.
    """
    if not (0.0 < epsilon <= 0.5):
        raise PreconditionError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    xs = sorted(int(v) for v in x_grid)
    if not xs:
        raise PreconditionError("experiment requires a nonempty x grid")
    h = entry.hypothesis
    rule_name = y_rule if isinstance(y_rule, str) else "explicit"
    report = ExperimentReport(entry.instance_id, epsilon, rule_name)
    for x in xs:
        ys = _ys_for(x, y_rule) if isinstance(y_rule, str) else [int(v) for v in y_rule]
        y_min, y_max = admissible_y_range(x)
        for y in sorted(ys):
            if y < 1:
                raise PreconditionError(f"window length must be >= 1, got {y}")
            exact = short_sum_bruteforce(entry.F_spec, x, y)
            main = main_term(h, x, y)
            err = abs(float(exact) - main)
            t1, t2, t3 = _envelope_terms(h, x, y, epsilon, entry.kappa_carries_eps)
            alt = None
            if entry.emit_both_error_forms:
                alt = _envelope_terms(h, x, y, epsilon, not entry.kappa_carries_eps)[0]
            T, H = proof_path_parameters(x, y)
            report.rows.append(
                ExperimentRow(
                    x=x,
                    y=y,
                    exact=exact,
                    main=main,
                    abs_err=err,
                    env1=t1,
                    env2=t2,
                    env3=t3,
                    norm_err=err / t2,
                    admissible=bool(y_min <= y <= y_max),
                    T=T,
                    H=H,
                    alt_env1=alt,
                )
            )
    return report


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def zeta_int(k: int) -> float:
    """zeta(k) for integer k >= 2 by direct summation plus tail correction."""
    if k < 2:
        raise PreconditionError(f"zeta_int requires k >= 2, got {k}")
    N = 10_000
    n = np.arange(1, N + 1, dtype=np.float64)
    head = float(np.sum(n**-k))
    tail = N ** (1 - k) / (k - 1) - 0.5 * N**-k + k / 12 * N ** (-k - 1)
    return head + tail


_EULER_IDS = ("cf_tau_cube", "three_omega_A", "three_omega_B")


def euler_product(constant_id: str, P: int) -> tuple[float, float]:
    """Partial Euler-product constants over primes <= P with a tail bound.

    cf_tau_cube     (1/6) prod (1 - 1/p)^2 (1 + 2/p)
    three_omega_A   prod (1 - 1/p)^2 (1 + 2/p)
    three_omega_B   A (2 gamma - 1 + 6 sum_p log p / ((p-1)(p+2)))

    B is the constant coefficient of the prefix z log z + z expansion of the
    squarefree-supported 2^omega sum; the prime sum is the log derivative of
    the Euler factor at 1 (checked empirically against exact prefixes, where
    the residual carries no linear term).

    The per-prime log factor of the product is bounded by 3/p^2, so the
    returned tail bound (on the log of the product, integral-comparison of the
    sum over integers beyond P) is 3/P; the B constant combines the product
    tail with the prime-sum tail (log P + 1)/P.
    """
    if P < 2:
        raise PreconditionError(f"euler product requires P >= 2, got {P}")
    if constant_id not in _EULER_IDS:
        raise PreconditionError(
            f"unknown constant id {constant_id!r}; known: {', '.join(_EULER_IDS)}"
        )
    from .arith import primes_upto

    p = primes_upto(P).astype(np.float64)
    factors = (1.0 - 1.0 / p) ** 2 * (1.0 + 2.0 / p)
    partial_A = float(np.prod(factors))
    tail_A = 3.0 / P
    if constant_id == "cf_tau_cube":
        return partial_A / 6.0, tail_A
    if constant_id == "three_omega_A":
        return partial_A, tail_A
    s = float(np.sum(np.log(p) / ((p - 1.0) * (p + 2.0))))
    tail_s = (math.log(P) + 1.0) / P
    value = partial_A * (2 * EULER_GAMMA - 1 + 6 * s)
    bound = abs(value) * tail_A + partial_A * 6 * tail_s
    return value, bound
