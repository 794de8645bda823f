"""Differential property tests for the Delta_r range layer.

The CSR divisor sieve is checked against trial division, the integer window
ends against Python's float comparison, the one-row kernel of
:func:`delta_r` for r = 2 and 3 against the coordinate enumeration
``_best_windows`` (value, witness and work charged), and the range iteration
against ``_best_windows`` and :func:`delta_r` at single points.
"""

import math
from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import brute_divisors  # noqa: E402
from hyplab import hooley  # noqa: E402
from hyplab.errors import WorkCapError  # noqa: E402

MAX_N = 2**63 - 1


def _trial_divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def _lists(lo, hi):
    offsets, a = hooley._divisor_block(lo, hi)
    rows = zip(offsets[:-1].tolist(), offsets[1:].tolist())
    return [(n, a[i:j].tolist()) for n, (i, j) in zip(range(lo, hi + 1), rows, strict=True)]


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
    dv = hooley.delta_r(n, r)
    assert (dv.value, dv.witness) == want
    charged = 10**12 - budget.left
    if r == 3:
        ends = hooley._block_ends(np.array([0, len(ds)]), np.array(ds, dtype=np.int64))
        assert hooley._charge3(ds, ends.tolist()) == charged
    else:
        assert len(ds) == charged
    # refused exactly one below the charge, answered at it unless tau^(r-1) is larger
    if len(ds) ** (r - 1) <= charged:
        assert hooley.delta_r(n, r, work_cap=charged).value == dv.value
    with pytest.raises(WorkCapError):
        hooley.delta_r(n, r, work_cap=charged - 1)


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


def _enumerated(n, r):
    ds = hooley.divisors(n)
    return hooley._best_windows({n: 1}, r - 1, hooley._DivisorMap(ds), hooley._Budget(10**12))[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    lo=st.integers(1, 10**6),
    y=st.integers(0, 80),
    block=st.integers(1, 40),
    r=st.sampled_from([2, 3]),
)
def test_range_blocks_match_enumeration(lo, y, block, r):
    # a small _BLOCK puts block edges inside the window
    with mock.patch.object(hooley, "_BLOCK", block):
        got = list(hooley.iter_delta_values(lo, lo + y, r))
    assert got == [(n, _enumerated(n, r)) for n in range(lo, lo + y + 1)]


_NEAR_2_53 = st.integers(2**53 - 64, 2**53 + 64)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    vs=st.lists(st.one_of(st.integers(1, 2**62), _NEAR_2_53), min_size=1, max_size=20),
    d=st.one_of(st.integers(1, MAX_N), _NEAR_2_53),
)
def test_window_tops_are_exact(vs, d):
    tops = hooley._window_tops(np.array(vs, dtype=np.int64)).tolist()
    for v, t in zip(vs, tops, strict=True):
        for c in (t, t + 1, d):
            if c <= MAX_N:
                assert (c <= t) == (c < v * hooley._E_TOP), (v, c)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    rows=st.lists(
        st.lists(st.integers(1, 2**59), min_size=1, max_size=12), min_size=1, max_size=8
    )
)
def test_block_ends_match_bisect(rows):
    # each row also holds the integers on both sides of each of its window tops;
    # 8 rows below 2^60 keep rows * max(a) inside int64
    sorted_rows = []
    for row in rows:
        near = {int(v * hooley._E_TOP) + k for v in row for k in (-1, 0, 1)}
        sorted_rows.append(sorted(set(row) | {m for m in near if m < 2**60}))
    offsets = np.cumsum([0] + [len(row) for row in sorted_rows])
    a = np.array([v for row in sorted_rows for v in row], dtype=np.int64)
    ends = hooley._block_ends(offsets, a).tolist()
    want = [
        start + bisect_left(row, v * hooley._E_TOP)
        for start, row in zip(offsets.tolist(), sorted_rows)
        for v in row
    ]
    assert ends == want
