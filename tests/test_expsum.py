import math

import numpy as np
import pytest

from conftest import psi_oracle
from hyplab import arith, expsum, hyperbola, specs
from hyplab.errors import PreconditionError


def test_truncated_psi_at_half():
    for H in (1, 4, 64):
        assert expsum.truncated_psi(0.5, H) == pytest.approx(0.0, abs=1e-12)


def test_truncated_psi_converges_at_quarter():
    err = abs(psi_oracle(0.25) - expsum.truncated_psi(0.25, 64))
    assert err <= 1.0 * min(1.0, 1.0 / (64 * 0.25))


def test_truncated_psi_odd_symmetry():
    for t in np.linspace(0.01, 0.99, 23):
        a = expsum.truncated_psi(float(t), 16)
        b = expsum.truncated_psi(float(1 - t), 16)
        assert a == pytest.approx(-b, abs=1e-12)


def test_profile_fitted_constant_shrinks_with_H():
    grid = np.linspace(1e-6, 1 - 1e-6, 2001)
    fits = [expsum.psi_truncation_profile(H, grid).fitted_constant for H in (4, 16, 64)]
    assert fits[0] >= fits[1] >= fits[2]
    assert all(f <= 3.0 for f in fits)


def test_profile_error_near_half():
    H = 32
    for t in (0.49, 0.5, 0.51):
        err = abs(psi_oracle(t) - expsum.truncated_psi(t, H))
        assert err <= 1.0 / (2 * H) + 0.02


def test_profile_rejects_grid_touching_integers():
    with pytest.raises(PreconditionError):
        expsum.psi_truncation_profile(4, [0.5, 1e-9])
    with pytest.raises(PreconditionError):
        expsum.psi_truncation_profile(4, [])


def test_fourier_split_zero_window():
    assert expsum.truncated_fourier_split(specs.one(), 5, 100, 0, 8) == (0.0, 0.0)


def test_fourier_split_reconciles():
    for f in (specs.one(), specs.tau_m(2), specs.mobius()):
        for (N, x, y, H) in ((5, 100, 3, 8), (50, 5000, 20, 16), (200, 9999, 150, 64)):
            integral, remainder = expsum.truncated_fourier_split(f, N, x, y, H)
            sigma = hyperbola.sawtooth_block_sum(f, N, x, y)
            assert integral + remainder == pytest.approx(sigma, abs=1e-9)


def test_fourier_split_sieves_its_block_once(monkeypatch):
    swept = []
    range_values = arith._range_values

    def spy(spec, lo, hi):
        swept.append((lo, hi))
        return range_values(spec, lo, hi)

    monkeypatch.setattr(arith, "_range_values", spy)
    f, N, x, y = specs.tau_m(3), 4096, 4 * 4096, 1000
    integral, remainder = expsum.truncated_fourier_split(f, N, x, y, 4)
    assert swept == [(N + 1, 2 * N)]
    # the remainder is taken from the exact block sum, bit for bit
    assert remainder == hyperbola.sawtooth_block_sum(f, N, x, y) - integral


def test_fourier_split_proof_choice_of_modes():
    N, x, y = 128, 10_000, 30
    H = 4 * (N // y)
    integral, remainder = expsum.truncated_fourier_split(specs.tau_m(2), N, x, y, H)
    assert math.isfinite(integral) and math.isfinite(remainder)


def test_proximity_sum_example():
    got = expsum.tau_proximity_sum(100, 4, 4, 1)
    # direct four-term evaluation
    oracle = 0.0
    for n in range(5, 9):
        dist = hyperbola.nearest_int_dist(100 / n)
        oracle += 1.0 if dist == 0 else min(1.0, 1.0 / (4 * dist))
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(3.125, abs=1e-12)


def test_proximity_sum_naive_loop_agreement():
    for z, N, H, m in (
        (100, 4, 4, 1),
        (1000, 32, 8, 2),
        (7919, 100, 16, 3),
        (30_000, 10_000, 64, 2),
    ):
        got = expsum.tau_proximity_sum(z, N, H, m)
        oracle = 0.0
        for n in range(N + 1, 2 * N + 1):
            tau = arith.evaluate_point(specs.tau_m(m), n)
            r = z % n
            dist = min(r, n - r) / n
            w = 1.0 if dist == 0 else min(1.0, 1.0 / (H * dist))
            oracle += tau * w
        assert got == pytest.approx(oracle, rel=1e-12)


def test_proximity_sum_exact_multiples_clamp():
    # z divisible by some n in the block: those terms contribute exactly 1
    got = expsum.tau_proximity_sum(60, 4, 4, 1)
    assert got >= 1.0


def test_proximity_sum_hypothesis():
    with pytest.raises(PreconditionError):
        expsum.tau_proximity_sum(100, 4, 2, 1)  # H < 4
    with pytest.raises(PreconditionError):
        expsum.tau_proximity_sum(3, 4, 4, 1)  # N > z


def test_envelope_fit_constant_is_the_largest_ratio():
    grid = [(z, N, H, 1) for z in (100, 1000) for N in (4, 16) for H in (4, 8) if H <= N]
    fit = expsum.tau_proximity_envelope_fit(grid)
    assert fit.fitted_constant >= 0
    assert all(e > 0 for e in fit.envelope_values)
    ratios = [l / e for l, e in zip(fit.lhs_values, fit.envelope_values)]
    assert fit.fitted_constant == max(ratios)
    assert all(l <= fit.fitted_constant * e for l, e in zip(fit.lhs_values, fit.envelope_values))


def test_envelope_fit_rejects_empty_grid():
    with pytest.raises(PreconditionError):
        expsum.tau_proximity_envelope_fit([])


def test_blocks_past_the_prefix_cap_are_windows(monkeypatch):
    # a dyadic block (N, 2N] is read as a window: it builds no prefix table
    # and is answered past PREFIX_WINDOW_MAX with the values below it
    real = specs.convolve(specs.log_pow(1), specs.log_pow(1))
    N, x, y, H = 4000, 100_000, 3000, 16

    def blocks():
        return (
            [hyperbola.sawtooth_block_sum(f, N, x, y) for f in (specs.tau_m(2), real)],
            expsum.truncated_fourier_split(specs.tau_m(3), N, x, y, H),
            expsum.tau_proximity_sum(x + 3, N, H, 2),
        )

    arith.clear_table_cache()
    want = blocks()
    monkeypatch.setattr(arith, "PREFIX_WINDOW_MAX", 5000)
    arith.clear_table_cache()
    got = blocks()
    built = dict(arith._table_cache)
    arith.clear_table_cache()
    assert got == want
    assert built == {}
