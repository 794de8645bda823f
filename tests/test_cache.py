import contextlib
import io
import struct

import numpy as np
import pytest

from hyplab import arith, cli, specs
from hyplab import cache as cache_module
from hyplab.cache import SegmentCache


@pytest.fixture
def installed(tmp_path):
    """A cache in ``tmp_path`` installed for the test, with its warnings."""
    warn = io.StringIO()
    cache = SegmentCache(str(tmp_path), warn_stream=warn)
    arith.set_segment_cache(cache)
    try:
        yield cache, warn
    finally:
        arith.set_segment_cache(None)


def count_windows(monkeypatch):
    calls = []
    real = arith._range_values

    def spy(spec, lo, hi):
        calls.append((spec, lo, hi))
        return real(spec, lo, hi)

    monkeypatch.setattr(arith, "_range_values", spy)
    return calls


def test_roundtrip_int_and_float(tmp_path):
    cache = SegmentCache(str(tmp_path))
    for total in (0, -7, 56, 2**63 + 5, -(3**200)):
        cache.store(specs.tau_m(2), 5, 24, total)
        back = cache.load(specs.tau_m(2), 5, 24)
        assert type(back) is int and back == total
    for total in (0.1 + 0.2, -1 / 3, 5e-324, 1.7976931348623157e308, -0.0):
        cache.store(specs.log_pow(1), 5, 24, total)
        back = cache.load(specs.log_pow(1), 5, 24)
        assert type(back) is float and back.hex() == total.hex()


def test_miss_on_other_key(tmp_path):
    cache = SegmentCache(str(tmp_path))
    cache.store(specs.tau_m(2), 1, 8, 20)
    assert cache.load(specs.tau_m(2), 1, 8) == 20
    assert cache.load(specs.tau_m(2), 1, 9) is None
    assert cache.load(specs.tau_m(2), 0, 8) is None
    assert cache.load(specs.tau_m(3), 1, 8) is None


def test_corruption_detected(tmp_path):
    warn = io.StringIO()
    cache = SegmentCache(str(tmp_path), warn_stream=warn)
    cache.store(specs.tau_m(2), 1, 8, 20)
    (victim,) = tmp_path.iterdir()
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    victim.write_bytes(bytes(blob))
    assert cache.load(specs.tau_m(2), 1, 8) is None
    assert "invalid" in warn.getvalue()
    assert not victim.exists()  # bad entry is dropped


def test_sieve_range_leaves_the_directory_empty(tmp_path, installed):
    arith.sieve_range(specs.tau_m(4), 1000, 3000)
    arith.sieve_range(specs.lambda_k(1), 5_000_001, 5_001_100)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "spec, x, y",
    [
        (specs.tau_m(4), 999, 2001),
        (specs.lambda_k(1), 5_000_000, 1100),
        (specs.tau_m(100), (1 << 20) - 64, 64),  # a big-int sum
    ],
    ids=["int", "real", "bigint"],
)
def test_one_file_per_sum_and_warm_reads_it(tmp_path, installed, monkeypatch, spec, x, y):
    arith.set_segment_cache(None)
    cold = arith.short_sum_bruteforce(spec, x, y)
    arith.set_segment_cache(installed[0])
    assert arith.short_sum_bruteforce(spec, x, y) == cold
    assert len(list(tmp_path.iterdir())) == 1
    windows = count_windows(monkeypatch)
    warm = arith.short_sum_bruteforce(spec, x, y)
    assert windows == []
    assert type(warm) is type(cold) and repr(warm) == repr(cold)
    assert len(list(tmp_path.iterdir())) == 1


def test_big_int_sum_comes_from_an_escalated_window(tmp_path, installed):
    spec, x, y = specs.tau_m(100), (1 << 20) - 64, 64
    # the window itself is exact Python integers: int64 would wrap
    assert arith.sieve_range(spec, x + 1, x + y).values.dtype == object
    total = arith.short_sum_bruteforce(spec, x, y)
    assert total > 1 << 63
    assert total == sum(arith.evaluate_point(spec, n) for n in range(x + 1, x + y + 1))
    assert installed[0].load(spec, x, y) == total


def rewrite(path, cut=0, payload=None):
    """Truncate the file by ``cut`` bytes, or give it a new payload and checksum."""
    blob = path.read_bytes()
    if payload is None:
        path.write_bytes(blob[: len(blob) - cut])
        return
    klen = cache_module._HEADER.unpack_from(blob)[-1]
    body = blob[: cache_module._HEADER.size + klen] + payload
    path.write_bytes(body + cache_module._checksum(body))


@pytest.mark.parametrize(
    "damage",
    [
        {"cut": 3},
        {"cut": 40},
        {"payload": b"zz"},
        {"payload": b""},
        {"payload": b"\xff1"},
        {"payload": (1.5).hex().encode()},  # a real sum under an integer key
    ],
    ids=["truncated", "header-only", "non-numeric", "empty", "non-ascii", "real"],
)
def test_bad_entry_is_dropped_and_recomputed(tmp_path, installed, damage):
    cache, warn = installed
    spec, x, y = specs.tau_m(3), 10_000, 500
    want = arith.short_sum_bruteforce(spec, x, y)
    (victim,) = tmp_path.iterdir()
    rewrite(victim, **damage)
    assert cache.load(spec, x, y) is None
    assert "invalid" in warn.getvalue()
    assert not victim.exists()
    assert arith.short_sum_bruteforce(spec, x, y) == want
    assert cache.load(spec, x, y) == want


def test_old_array_file_is_not_read_as_a_sum(tmp_path):
    # version 2 kept a sieved window (int64 records) under the same magic
    warn = io.StringIO()
    cache = SegmentCache(str(tmp_path), warn_stream=warn)
    spec, x, y = specs.tau_m(2), 0, 8
    key = spec.key.encode()
    values = np.array([arith.evaluate_point(spec, n) for n in range(1, 9)], dtype="<i8")
    body = struct.pack("<8sIB3sqqH", b"HYPLABVT", 2, 0, b"\0" * 3, 1, 8, len(key))
    body += key + values.tobytes()
    path = tmp_path / "old.vt"
    path.write_bytes(body + cache_module._checksum(body))
    path.rename(cache._path(spec, x, y))
    assert cache.load(spec, x, y) is None
    assert "invalid" in warn.getvalue()
    assert list(tmp_path.iterdir()) == []


def test_other_version_not_loaded(tmp_path, monkeypatch):
    warn = io.StringIO()
    cache = SegmentCache(str(tmp_path), warn_stream=warn)
    current = cache_module._VERSION
    monkeypatch.setattr(cache_module, "_VERSION", current - 1)
    cache.store(specs.tau_m(2), 1, 8, 20)
    (old,) = tmp_path.iterdir()
    monkeypatch.setattr(cache_module, "_VERSION", current)
    assert cache.load(specs.tau_m(2), 1, 8) is None  # another file name
    assert warn.getvalue() == ""
    # the same bytes under the current file name fail the header check
    old.rename(cache._path(specs.tau_m(2), 1, 8))
    assert cache.load(specs.tau_m(2), 1, 8) is None
    assert "invalid" in warn.getvalue()


def test_failed_write_keeps_the_sum(tmp_path):
    # a directory removed mid-run makes mkstemp fail; the sum computed
    # before the write is still returned
    gone = tmp_path / "gone"
    cache = SegmentCache(str(gone))
    gone.rmdir()
    spec, x, y = specs.tau_m(3), 10_000, 500
    want = arith.short_sum_bruteforce(spec, x, y)
    arith.set_segment_cache(cache)
    try:
        assert arith.short_sum_bruteforce(spec, x, y) == want
    finally:
        arith.set_segment_cache(None)
    assert not gone.exists()


def test_hyperbola_legs_store_no_segments(tmp_path, monkeypatch):
    # past the prefix cap each leg window is summed on its own; storing each
    # one wrote thousands of one-use files per run
    monkeypatch.setattr(arith, "PREFIX_WINDOW_MAX", 5000)
    argv = "shortsum --function tau_k --k 3 --x 200000 --y 600 --method hyperbola --T 700"
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main([*argv.split(), "--cache-dir", str(tmp_path)]) == 0
    finally:
        arith.set_segment_cache(None)
        arith.clear_table_cache()
    # T = 700 puts the one integer 286 in (x/T, (x+y)/T]: the sum over its
    # boundary window (700, 701] is the only file stored
    assert len(list(tmp_path.iterdir())) == 1
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        assert cli.main(argv.split()) == 0
    assert out.getvalue() == plain.getvalue()
