import math
import tracemalloc

import pytest

from conftest import brute_divisors
from hyplab import arith, hooley, specs
from hyplab.errors import PreconditionError, WorkCapError


def test_divisors_examples():
    assert hooley.divisors(1) == [1]
    assert hooley.divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in (2, 30, 97, 360, 1024):
        assert hooley.divisors(n) == brute_divisors(n)


def test_divisor_count_is_tau():
    for n in range(1, 1000):
        assert len(hooley.divisors(n)) == arith.evaluate_point(
            specs.tau_m(2), n
        )


@pytest.mark.parametrize(
    "n,value", [(1, 1), (2, 2), (6, 2), (11, 1), (12, 3), (24, 4), (97, 1)]
)
def test_delta2_small_values(n, value):
    dv = hooley.delta_r(n, 2)
    assert dv.value == value
    assert dv.value == hooley.delta_r_grid_oracle(n, 2, 1e-4)


def test_delta_witness_recounts():
    for n in (1, 2, 12, 60, 360, 720, 1260):
        for r in (2, 3):
            dv = hooley.delta_r(n, r)
            assert len(dv.witness) == r - 1
            assert hooley.window_tuple_count(n, dv.witness) == dv.value


def test_delta12_witness_location():
    dv = hooley.delta_r(12, 2)
    # maximizing window starts just below the divisor 2, covering {2, 3, 4}
    assert dv.witness[0] == pytest.approx(math.log(2), abs=1e-9)


def test_grid_oracle_examples():
    assert hooley.delta_r_grid_oracle(1, 2, 1e-4) == 1
    assert hooley.delta_r_grid_oracle(1, 3, 1e-4) == 1
    assert hooley.delta_r_grid_oracle(12, 2, 1e-4) == 3


def test_grid_oracle_preconditions():
    with pytest.raises(PreconditionError):
        hooley.delta_r_grid_oracle(12, 2, 1e-2)
    with pytest.raises(PreconditionError):
        hooley.delta_r_grid_oracle(12, 4, 1e-4)


def test_delta_r_preconditions():
    with pytest.raises(PreconditionError):
        hooley.delta_r(12, 5)
    with pytest.raises(WorkCapError):
        hooley.delta_r(720720, 4, work_cap=100)


def test_delta_upper_and_monotonicity_bounds():
    deltas2 = dict(hooley.iter_delta_values(1, 10_000, 2))
    for n, d2 in deltas2.items():
        assert 1 <= d2 <= arith.evaluate_point(specs.tau_m(2), n), n
    for n in range(1, 2001):
        d3 = hooley.delta_r(n, 3).value
        d4 = hooley.delta_r(n, 4).value
        assert d3 >= deltas2[n]
        assert d4 >= d3


def test_dyadic_tau_sum_examples():
    assert hooley.dyadic_divisor_tau_sum(12, 1, 2) == 2
    assert hooley.dyadic_divisor_tau_sum(1, 3, 1) == 0
    got = hooley.dyadic_divisor_tau_sum(12, 2, 2)
    oracle = sum(
        len(brute_divisors(d)) for d in brute_divisors(12) if 2 < d <= 4
    )
    assert got == oracle == 5


def test_dyadic_bound_check_examples():
    lhs, rhs, holds = hooley.dyadic_tau_delta_check(12, 1, 2)
    assert (lhs, rhs, holds) == (2, 3.0, True)
    lhs, rhs, holds = hooley.dyadic_tau_delta_check(1, 2, 1)
    assert lhs == 0 and holds


def test_delta_short_sum_examples():
    assert hooley.delta_short_sum(2, 0, 1) == 1
    assert hooley.delta_short_sum(2, 10, 2) == 4  # 11 is prime, Delta(12) = 3
    assert hooley.delta_short_sum(2, 0, 0) == hooley.delta_short_sum(3, 7, 0) == 0


def test_delta_weighted_prefix_frozen():
    got = hooley.delta_weighted_prefix(2, 100)
    oracle = math.fsum(
        hooley.delta_r_grid_oracle(n, 2, 1e-4) / n for n in range(1, 101)
    )
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(8.28728238460653, rel=1e-12)


def test_iter_delta_values_matches_pointwise():
    seq = dict(hooley.iter_delta_values(1, 300, 2))
    for n in (1, 2, 100, 255, 300):
        assert seq[n] == hooley.delta_r(n, 2).value


def test_delta_highly_composite_spot():
    # 720720 has 240 divisors; solver and oracle still agree
    dv = hooley.delta_r(720720, 2)
    assert dv.value == hooley.delta_r_grid_oracle(720720, 2, 1e-4)
    assert hooley.window_tuple_count(720720, dv.witness) == dv.value


def test_weighted_prefix_ratio_bounded():
    # ratio of the weighted prefix to its log-power envelope stays far below
    # one at desk scale; frozen guard from a first oracle run
    from hyplab.asymptotics import hooley_mean_exponent

    ratios = []
    for x in (1000, 10_000, 100_000):
        v = hooley.delta_weighted_prefix(2, x)
        env = math.log(x) ** (1.0 + hooley_mean_exponent(x, 2))
        ratios.append(v / env)
    assert all(0 < q < 1e-30 for q in ratios)


@pytest.mark.parametrize("r,cap", [(2, 32), (3, 1592)])
def test_window_sums_charge_the_cap_per_n(r, cap, monkeypatch):
    # every n <= 1100 fits under cap (the largest single charge), the window
    # (1000, 1100] as a whole does not
    full = dict(hooley.iter_delta_values(1, 1100, r))
    monkeypatch.setattr(hooley, "WORK_CAP", cap)
    per_n = dict(hooley.iter_delta_values(1, 1100, r))
    assert per_n == full
    window = sum(per_n[n] for n in range(1001, 1101))
    assert hooley.delta_short_sum(r, 1000, 100) == window
    assert hooley.delta_weighted_prefix(r, 1100) == math.fsum(
        v / n for n, v in per_n.items()
    )
    monkeypatch.setattr(hooley, "WORK_CAP", cap - 1)
    with pytest.raises(WorkCapError):
        hooley.delta_short_sum(r, 1000, 100)


@pytest.mark.parametrize("cap,value", [(115_608, 155), (115_607, None)])
def test_delta4_refuses_at_the_exact_charge_on_every_route(cap, value, monkeypatch):
    # tau(5040) = 60, so tau^3 = 216000 > cap; the enumeration charges 115608
    monkeypatch.setattr(hooley, "WORK_CAP", cap)
    routes = [
        lambda: hooley.delta_r(5040, 4, work_cap=cap).value,
        lambda: dict(hooley.iter_delta_values(5040, 5040, 4))[5040],
        lambda: hooley.delta_short_sum(4, 5039, 1),
    ]
    for route in routes:
        if value is None:
            with pytest.raises(WorkCapError):
                route()
        else:
            assert route() == value


@pytest.mark.parametrize(
    "n,cap,value",
    [
        # tau = 1344, so tau^2 fits the cap; the enumeration charges 11080801
        (735134400, 11_080_801, 2518),
        (735134400, 11_080_800, None),
        # tau = 240: (1 + tau) tau^2 = 13881600 > cap, but the charge 152282 fits
        (720720, 152_282, 254),
        (720720, 152_281, None),
        # tau^2 is no lower bound of the charge: the enumeration charges 61,
        # 143, 99, each below tau^2 = 64, 144, 100
        (66, 61, 3),
        (66, 60, None),
        (132, 143, 5),
        (132, 142, None),
        (162, 99, 3),
        (162, 98, None),
    ],
)
def test_delta3_refuses_at_the_exact_charge_on_every_route(n, cap, value, monkeypatch):
    monkeypatch.setattr(hooley, "WORK_CAP", cap)
    routes = [
        lambda: hooley.delta_r(n, 3, work_cap=cap).value,
        lambda: dict(hooley.iter_delta_values(n, n, 3))[n],
        lambda: hooley.delta_short_sum(3, n - 1, 1),
    ]
    for route in routes:
        if value is None:
            with pytest.raises(WorkCapError):
                route()
        else:
            assert route() == value


def test_delta3_refuses_at_the_exact_charge():
    # tau = 1344, so tau^2 fits the cap; the enumeration charges 11080801
    dv = hooley.delta_r(735134400, 3, work_cap=11_080_801)
    assert dv.value == 2518
    assert hooley.window_tuple_count(735134400, dv.witness) == dv.value
    with pytest.raises(WorkCapError):
        hooley.delta_r(735134400, 3, work_cap=11_080_800)
    with pytest.raises(WorkCapError):
        hooley.delta_r(735134400, 3)


@pytest.mark.parametrize(
    "call,bound_mb",
    [
        # one block of 4000 rows: about 6e4 divisors (0.5 MB as int64) and
        # Delta_3 tables of at most 168^2 entries
        (lambda: hooley.delta_short_sum(3, 10**6, 4000), 4),
        # full _BLOCKs of 2^14 rows: about 1.8e5 divisors (1.4 MB as int64)
        # each; the kernel keeps a few such arrays alive, never the whole range
        (lambda: hooley.delta_weighted_prefix(2, 40_000), 8),
    ],
    ids=["delta_short_sum(3,1e6,4000)", "delta_weighted_prefix(2,40000)"],
)
def test_range_layer_memory_is_bounded_per_block(call, bound_mb):
    call()  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20, peak
