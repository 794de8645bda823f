"""Arithmetic-function descriptors.

A :class:`FuncSpec` names one arithmetic function, either a base family or a
composition:

- ``one``            the constant function 1
- ``identity_at_1``  the Dirichlet convolution identity, 1 at n = 1 and 0 elsewhere
- ``mobius``         the Mobius function
- ``mu_k(k)``        indicator of k-free numbers (k = 2 gives mu squared)
- ``tau_m(m)``       the m-fold Piltz divisor function (m = 2 is the divisor count)
- ``tau_kfree(k)``   number of k-free divisors (k = 2 equals 2^omega)
- ``two_pow_omega``  2^(number of distinct prime factors)
- ``three_pow_omega``3^(number of distinct prime factors)
- ``log_pow(k)``     (log n)^k
- ``lambda_k(k)``    generalized von Mangoldt function, mobius convolved with log^k
- ``lambda_attached(g)``  the von Mangoldt function attached to g, defined by
                     (attached) * g = g x log, requires g(1) != 0
- ``convolve(f, g)`` Dirichlet convolution
- ``pointwise(f, g)``pointwise product
- ``dirichlet_inverse(g)``  convolution inverse of g, requires g(1) != 0

``lambda_k`` and ``lambda_attached`` are named shorthands: they keep their kinds
and keys, and :func:`base_form`, the normal form every engine evaluates, writes
them out in the other kinds.

Specs are immutable and hashable; the canonical ``key`` string doubles as the
cache identity of every table sieved from the spec.  All evaluation lives in
:mod:`hyplab.arith`.  This module only encodes structure: value domains,
multiplicativity, and the values taken on prime powers when those depend on the
exponent alone.  Every integer-valued spec has such values and f(1) = 1, which
makes fully vectorized window sieving possible; every real-valued spec has
f(1) = 0, so only integer specs have a Dirichlet inverse.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

from .errors import InvalidSpecError

__all__ = [
    "FuncSpec",
    "one",
    "identity_at_1",
    "mobius",
    "mu_k",
    "tau_m",
    "tau_kfree",
    "two_pow_omega",
    "three_pow_omega",
    "log_pow",
    "lambda_k",
    "lambda_attached",
    "convolve",
    "pointwise",
    "dirichlet_inverse",
    "base_form",
    "MAX_N",
]

#: Largest admissible argument for pointwise evaluation (signed 64-bit range).
MAX_N = 2**63 - 1

_PARAMETRIC = frozenset({"mu_k", "tau_m", "tau_kfree", "log_pow", "lambda_k"})


@dataclass(frozen=True)
class FuncSpec:
    """One arithmetic function.  Build instances with the module constructors."""

    kind: str
    param: int = 0
    children: tuple["FuncSpec", ...] = ()

    def __post_init__(self) -> None:
        # the field-tuple hash the dataclass would generate, computed once:
        # specs key lru_caches, and a tree's hash would otherwise recurse
        object.__setattr__(self, "_hash", hash((self.kind, self.param, self.children)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def key(self) -> str:
        """Canonical string, unique per function, stable across runs."""
        if self.kind in _PARAMETRIC:
            return f"{self.kind}({self.param})"
        if self.children:
            inner = ",".join(c.key for c in self.children)
            return f"{self.kind}({inner})"
        return self.kind

    def __str__(self) -> str:
        return self.key

    @property
    def integer_valued(self) -> bool:
        return _integer_valued(self)

    def value_at_1(self):
        """The unit value f(1); an int for integer-valued specs."""
        return _value_at_1(self)


def one() -> FuncSpec:
    return FuncSpec("one")


def identity_at_1() -> FuncSpec:
    return FuncSpec("identity_at_1")


def mobius() -> FuncSpec:
    return FuncSpec("mobius")


def mu_k(k: int) -> FuncSpec:
    if k < 2:
        raise InvalidSpecError(f"mu_k requires k >= 2, got {k}")
    return FuncSpec("mu_k", k)


def tau_m(m: int) -> FuncSpec:
    if m < 1:
        raise InvalidSpecError(f"tau_m requires m >= 1, got {m}")
    return FuncSpec("tau_m", m)


def tau_kfree(k: int) -> FuncSpec:
    if k < 1:
        raise InvalidSpecError(f"tau_kfree requires k >= 1, got {k}")
    return FuncSpec("tau_kfree", k)


def two_pow_omega() -> FuncSpec:
    return FuncSpec("two_pow_omega")


def three_pow_omega() -> FuncSpec:
    return FuncSpec("three_pow_omega")


def log_pow(k: int) -> FuncSpec:
    if k < 1:
        raise InvalidSpecError(f"log_pow requires k >= 1, got {k}")
    return FuncSpec("log_pow", k)


def lambda_k(k: int) -> FuncSpec:
    if k < 1:
        raise InvalidSpecError(f"lambda_k requires k >= 1, got {k}")
    return FuncSpec("lambda_k", k)


def lambda_attached(base: FuncSpec) -> FuncSpec:
    if base.value_at_1() == 0:
        raise InvalidSpecError(
            f"lambda_attached requires base(1) != 0, got base {base.key}"
        )
    return FuncSpec("lambda_attached", children=(base,))


def convolve(f: FuncSpec, g: FuncSpec) -> FuncSpec:
    return FuncSpec("convolve", children=(f, g))


def pointwise(f: FuncSpec, g: FuncSpec) -> FuncSpec:
    return FuncSpec("pointwise", children=(f, g))


def dirichlet_inverse(g: FuncSpec) -> FuncSpec:
    if g.value_at_1() == 0:
        raise InvalidSpecError(
            f"dirichlet_inverse requires g(1) != 0, got {g.key}"
        )
    return FuncSpec("dirichlet_inverse", children=(g,))


@functools.lru_cache(maxsize=None)
def _value_at_1(spec: FuncSpec):
    kind = spec.kind
    if kind in ("log_pow", "lambda_k", "lambda_attached"):
        return 0.0
    if kind in ("convolve", "pointwise"):
        a = _value_at_1(spec.children[0])
        b = _value_at_1(spec.children[1])
        return a * b
    # every remaining kind has f(1) = 1; an inverse exists only for integer g,
    # and those all have g(1) = 1
    return 1


@functools.lru_cache(maxsize=None)
def _integer_valued(spec: FuncSpec) -> bool:
    kind = spec.kind
    if kind in ("log_pow", "lambda_k", "lambda_attached"):
        return False
    if kind in ("convolve", "pointwise", "dirichlet_inverse"):
        return all(_integer_valued(c) for c in spec.children)
    return True


@functools.lru_cache(maxsize=None)
def base_form(spec: FuncSpec) -> FuncSpec:
    """The same function in normal form.

    The shorthands are written out in the other kinds:
    ``lambda_k(k) = mobius * log^k`` and ``lambda_attached(g) = (g x log) * g^{-1}``,
    because the attached function satisfies ``attached * g = g x log``.  A real
    convolution is flattened into its factors.  The real factors come first, in
    written order and nested to the left; the integer factors are folded into
    one trailing factor ``I``, dropped when it is the convolution identity.  So
    cor7's ``F`` becomes ``(mu_k(2) x log) * I`` and cor8(k)'s becomes
    ``(log^k * log^k) * I``.
    """
    kind = spec.kind
    if kind == "lambda_k":
        return base_form(convolve(mobius(), log_pow(spec.param)))
    if kind == "lambda_attached":
        g = spec.children[0]
        return base_form(convolve(pointwise(g, log_pow(1)), dirichlet_inverse(g)))
    if not spec.children:
        return spec
    spec = FuncSpec(kind, spec.param, tuple(base_form(c) for c in spec.children))
    if kind != "convolve" or prime_power_locals(spec) is not None:
        return spec
    factors = _factors(spec)
    real = [f for f in factors if prime_power_locals(f) is None]
    ints = [f for f in factors if prime_power_locals(f) is not None]
    out = functools.reduce(convolve, real)
    if ints:
        unit = functools.reduce(convolve, ints)
        if prime_power_locals(unit) != prime_power_locals(identity_at_1()):
            out = convolve(out, unit)
    return out


def _factors(spec: FuncSpec) -> tuple[FuncSpec, ...]:
    if spec.kind != "convolve":
        return (spec,)
    return _factors(spec.children[0]) + _factors(spec.children[1])


@functools.lru_cache(maxsize=None)
def prime_power_locals(spec: FuncSpec, emax: int = 64):
    """Values on prime powers p^0 .. p^emax when independent of p, else None.

    Multiplicative functions with exponent-only local values can be sieved over
    a window without ever materializing a factorization: each extracted prime
    exponent multiplies in one table entry.  Returns a tuple of ints.
    """
    kind = spec.kind
    if kind == "one":
        return tuple([1] * (emax + 1))
    if kind == "identity_at_1":
        return tuple([1] + [0] * emax)
    if kind == "mobius":
        return tuple([1, -1] + [0] * (emax - 1))
    if kind == "mu_k":
        return tuple(1 if e < spec.param else 0 for e in range(emax + 1))
    if kind == "tau_m":
        m = spec.param
        return tuple(comb(e + m - 1, m - 1) for e in range(emax + 1))
    if kind == "tau_kfree":
        k = spec.param
        return tuple(min(e, k - 1) + 1 for e in range(emax + 1))
    if kind == "two_pow_omega":
        return tuple([1] + [2] * emax)
    if kind == "three_pow_omega":
        return tuple([1] + [3] * emax)
    if kind == "convolve":
        a = prime_power_locals(spec.children[0], emax)
        b = prime_power_locals(spec.children[1], emax)
        if a is None or b is None:
            return None
        return tuple(
            sum(a[i] * b[e - i] for i in range(e + 1)) for e in range(emax + 1)
        )
    if kind == "pointwise":
        a = prime_power_locals(spec.children[0], emax)
        b = prime_power_locals(spec.children[1], emax)
        if a is None or b is None:
            return None
        return tuple(x * y for x, y in zip(a, b))
    if kind == "dirichlet_inverse":
        a = prime_power_locals(spec.children[0], emax)
        if a is None or a[0] != 1:
            return None
        inv = [1] + [0] * emax
        for e in range(1, emax + 1):
            inv[e] = -sum(a[i] * inv[e - i] for i in range(1, e + 1))
        return tuple(inv)
    return None
