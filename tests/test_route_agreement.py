"""Differential property test: every evaluation route gives the same values.

Random spec trees go through the far-window sweep, the cached prefix table and
the point recursion.  Real values must agree bit for bit; integer trees must
also match their structure evaluated with the array convolution.  On short
windows the far sweep runs with a small ``_CONV_BLOCK``, so its blocks of
(d, j) pairs split into several batches even on cheap windows.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hyplab import arith, specs  # noqa: E402
from test_specs import assert_value_domain  # noqa: E402

_INTEGER_LEAVES = st.sampled_from(
    [
        specs.one(),
        specs.identity_at_1(),
        specs.mobius(),
        specs.mu_k(2),
        specs.mu_k(3),
        specs.tau_m(2),
        specs.tau_m(3),
        specs.tau_kfree(2),
        specs.two_pow_omega(),
        specs.three_pow_omega(),
    ]
)
_REAL_LEAVES = st.sampled_from(
    [specs.log_pow(1), specs.log_pow(2), specs.lambda_k(1), specs.lambda_k(2)]
)
_LOG_LEAVES = st.sampled_from([specs.log_pow(1), specs.log_pow(2)])


def _trees(depth, integer=False):
    """Spec trees of at most the given depth; integer-valued ones if asked."""
    leaves = _INTEGER_LEAVES if integer else st.one_of(_INTEGER_LEAVES, _REAL_LEAVES)
    if depth == 0:
        return leaves
    sub = _trees(depth - 1, integer)
    nodes = [leaves, st.builds(specs.convolve, sub, sub), st.builds(specs.pointwise, sub, sub)]
    if not integer:
        nodes.append(st.builds(specs.lambda_attached, _trees(depth - 1, True)))
    return st.one_of(*nodes)


def _structural(spec, N):
    """Prefix values of an integer tree from its structure, not its locals."""
    if spec.kind == "convolve":
        f, g = (_structural(c, N) for c in spec.children)
        return arith._conv_prefix_values(f, g, N)
    if spec.kind == "pointwise":
        f, g = (_structural(c, N) for c in spec.children)
        return f * g
    return arith.prefix_values(spec, N)


_FAR = 64


def _far(spec, lo, hi, block=64):
    """The spec on [lo, hi] by the far sweep, in batches of at most ``block`` pairs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "PREFIX_WINDOW_MAX", _FAR)
        mp.setattr(arith, "_CONV_BLOCK", block)
        return arith.sieve_range(spec, lo, hi).values.tolist()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    spec=_trees(3),
    lo=st.integers(_FAR + 1, 20_000),
    y=st.integers(0, 40),
)
def test_routes_agree(spec, lo, y):
    hi = lo + y
    far = _far(spec, lo, hi)
    table = arith.prefix_values(spec, hi)[lo : hi + 1].tolist()
    points = [arith.evaluate_point(spec, n) for n in range(lo, hi + 1)]
    assert far == table == points
    assert_value_domain(spec, range(lo, hi + 1))
    if spec.integer_valued:
        assert _structural(spec, hi)[lo : hi + 1].tolist() == far


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    spec=st.builds(specs.convolve, _trees(2), _trees(2)),
    lo=st.integers(20_000, 300_000),
    y=st.integers(0, 2000),
    data=st.data(),
)
def test_far_covers_agree(spec, lo, y, data):
    # windows long enough that dyadic blocks of both sweep loops take a cover;
    # covers have at most max(2 _CONV_BLOCK, y) entries, so the block stays
    hi = lo + y
    far = _far(spec, lo, hi, arith._CONV_BLOCK)
    assert far == arith.prefix_values(spec, hi)[lo : hi + 1].tolist()
    sample = data.draw(st.lists(st.integers(lo, hi), max_size=12))
    assert [far[n - lo] for n in sample] == [arith.evaluate_point(spec, n) for n in sample]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    spec=st.one_of(
        st.builds(specs.convolve, _LOG_LEAVES, _LOG_LEAVES),
        st.builds(specs.convolve, _LOG_LEAVES, _trees(1)),
        st.builds(specs.convolve, _trees(1), _LOG_LEAVES),
        st.builds(specs.convolve, st.builds(specs.convolve, _LOG_LEAVES, _LOG_LEAVES), _trees(1)),
    ),
    lo=st.integers(_FAR + 1, 200_000),
    y=st.integers(0, 2000),
    data=st.data(),
)
def test_log_leaf_sweeps_agree(spec, lo, y, data):
    # convolutions whose children are bare log_pow leaves: the far sweep
    # evaluates those leaves at its gathered points, with no cover
    hi = lo + y
    far = _far(spec, lo, hi)
    assert far == arith.prefix_values(spec, hi)[lo : hi + 1].tolist()
    sample = data.draw(st.lists(st.integers(lo, hi), max_size=12))
    assert [far[n - lo] for n in sample] == [arith.evaluate_point(spec, n) for n in sample]
