import contextlib
import io

import numpy as np

from hyplab import arith, cli, specs
from hyplab import cache as cache_module
from hyplab.cache import SegmentCache


def test_roundtrip_int_and_float(tmp_path):
    cache = SegmentCache(str(tmp_path))
    ints = np.arange(10, 30, dtype=np.int64)
    cache.store(specs.tau_m(2), 5, 24, ints)
    back = cache.load(specs.tau_m(2), 5, 24)
    assert back.dtype == np.int64 and np.array_equal(back, ints)

    floats = np.linspace(0.0, 1.0, 20)
    cache.store(specs.log_pow(1), 5, 24, floats)
    back = cache.load(specs.log_pow(1), 5, 24)
    assert back.dtype == np.float64 and np.array_equal(back, floats)


def test_miss_on_other_key(tmp_path):
    cache = SegmentCache(str(tmp_path))
    cache.store(specs.tau_m(2), 1, 8, np.ones(8, dtype=np.int64))
    assert cache.load(specs.tau_m(2), 1, 9) is None
    assert cache.load(specs.tau_m(3), 1, 8) is None


def test_corruption_detected(tmp_path):
    warn = io.StringIO()
    cache = SegmentCache(str(tmp_path), warn_stream=warn)
    cache.store(specs.tau_m(2), 1, 8, np.ones(8, dtype=np.int64))
    victim = next(tmp_path.iterdir())
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    victim.write_bytes(bytes(blob))
    assert cache.load(specs.tau_m(2), 1, 8) is None
    assert "invalid" in warn.getvalue()
    assert not victim.exists()  # bad entry is dropped


def test_sieve_range_warm_equals_cold(tmp_path):
    spec = specs.tau_m(4)
    cold = arith.sieve_range(spec, 1000, 3000).values
    try:
        arith.set_segment_cache(SegmentCache(str(tmp_path)))
        first = arith.sieve_range(spec, 1000, 3000).values
        warm = arith.sieve_range(spec, 1000, 3000).values
    finally:
        arith.set_segment_cache(None)
    assert np.array_equal(cold, first)
    assert np.array_equal(first, warm)
    assert len(list(tmp_path.iterdir())) == 1


def test_other_version_not_loaded(tmp_path, monkeypatch):
    # segments of an earlier format version may hold values of another route
    warn = io.StringIO()
    cache = SegmentCache(str(tmp_path), warn_stream=warn)
    current = cache_module._VERSION
    monkeypatch.setattr(cache_module, "_VERSION", current - 1)
    cache.store(specs.tau_m(2), 1, 8, np.ones(8, dtype=np.int64))
    old = next(tmp_path.iterdir())
    monkeypatch.setattr(cache_module, "_VERSION", current)
    assert cache.load(specs.tau_m(2), 1, 8) is None
    # the same bytes under the current file name fail the header check
    old.rename(cache._path(specs.tau_m(2), 1, 8))
    assert cache.load(specs.tau_m(2), 1, 8) is None
    assert "invalid" in warn.getvalue()


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
    # T = 700 puts the one integer 286 in (x/T, (x+y)/T]: its boundary
    # window (700, 701] is the only segment stored
    assert len(list(tmp_path.iterdir())) == 1
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        assert cli.main(argv.split()) == 0
    assert out.getvalue() == plain.getvalue()
