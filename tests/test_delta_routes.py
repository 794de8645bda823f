"""Differential property tests for the Delta_r range layer.

The sqrt-bounded divisor sieve is checked against trial division, the array
route for r = 2 and 3 against the coordinate enumeration ``_best_windows``
(value, witness and work charged), and the range iteration against
:func:`delta_r` at single points.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import brute_divisors  # noqa: E402
from hyplab import hooley  # noqa: E402


def _trial_divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def _lists(lo, hi):
    return list(hooley._iter_divisor_lists(lo, hi))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hi=st.integers(1, 1500))
def test_divisor_lists_from_one(hi):
    assert _lists(1, hi) == [(n, brute_divisors(n)) for n in range(1, hi + 1)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    lo=st.integers(hooley._BLOCK - 60, hooley._BLOCK + 1),
    y=st.integers(0, 120),
    blocks=st.integers(1, 40),
)
def test_divisor_lists_across_block_edges(lo, y, blocks):
    shift = (blocks - 1) * hooley._BLOCK
    lo, hi = lo + shift, lo + shift + y
    assert _lists(lo, hi) == [(n, _trial_divisors(n)) for n in range(lo, hi + 1)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(1, 3000), before=st.integers(0, 3), after=st.integers(0, 3))
def test_divisor_lists_at_squares(k, before, after):
    lo, hi = max(1, k * k - before), k * k + after
    got = _lists(lo, hi)
    assert got == [(n, _trial_divisors(n)) for n in range(lo, hi + 1)]
    assert dict(got)[k * k].count(k) == 1


def _check_against_enumeration(n, r):
    ds = hooley.divisors(n)
    budget = hooley._Budget(10**12)
    want = hooley._best_windows({n: 1}, r - 1, hooley._DivisorMap(ds), budget)
    assert hooley._delta(ds, r, hooley.WORK_CAP) == want
    charged = 10**12 - budget.left
    if r == 3:
        assert hooley._charge3(ds, hooley._window_ends(ds)) == charged
    else:
        assert len(ds) == charged


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.integers(1, 10**9), r=st.sampled_from([2, 3]))
def test_array_route_matches_enumeration(n, r):
    _check_against_enumeration(n, r)


_PRIMORIALS = [2, 6, 30, 210, 2310, 30030, 510510, 9699690, 223092870]


#: At 9048 and 21320 the first column window of the best row that attains
#: the maximum starts at a divisor of no cofactor in the row window; the
#: witness must skip it, as the coordinate enumeration does.
_SKIP_EMPTY_COLUMN = [9048, 21320]


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n", [1, 12, 720720, 5040, 2**20, *_PRIMORIALS, *_SKIP_EMPTY_COLUMN])
def test_array_route_matches_enumeration_at_composites(n, r):
    _check_against_enumeration(n, r)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(lo=st.integers(1, 10**6), y=st.integers(0, 60))
def test_iteration_matches_pointwise_delta3(lo, y):
    got = list(hooley.iter_delta_values(lo, lo + y, 3))
    assert got == [(n, hooley.delta_r(n, 3).value) for n in range(lo, lo + y + 1)]
