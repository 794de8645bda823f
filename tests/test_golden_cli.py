"""CLI output stays byte-identical: the exit code and stdout md5 of each command.

Each command of ``golden_cli.json`` runs in process through ``cli.main``.  A
row may pin an ``exit`` code (default 0); a refusal writes nothing to stdout,
so its md5 is that of the empty string.  A mismatch fails, prints the row as
it now runs, ready to paste, and names the toolchain the table was made with
beside the running one, since float rows depend on numpy's ``log`` and on
libm.  The ``verify`` and ``shortsum`` rows run once more, cold and then warm,
with a cache directory: both runs must give the row's md5.
"""

import contextlib
import hashlib
import io
import json
import platform
import shlex
from pathlib import Path

import numpy as np
import pytest

from hyplab import arith, cli
from hyplab.cache import CACHE_ENV_VAR

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


def run(argv):
    """The exit code and stdout md5 of one in-process run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, hashlib.md5(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("row", GOLDEN["commands"], ids=lambda r: r["argv"])
def test_cli_output_md5(row, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, md5 = run(shlex.split(row["argv"]))
    got = {"md5": md5, "argv": row["argv"]}
    if code != 0:
        got["exit"] = code
    assert (code, md5) == (row.get("exit", 0), row["md5"]), (
        f"now {json.dumps(got)}; table made with Python {GOLDEN['python']} "
        f"and numpy {GOLDEN['numpy']}, running Python "
        f"{platform.python_version()} and numpy {np.__version__}"
    )


SUMS = [r for r in GOLDEN["commands"] if r["argv"].split()[0] in ("verify", "shortsum")]


@pytest.mark.parametrize("row", SUMS, ids=lambda r: r["argv"])
def test_cli_output_md5_cold_and_warm_cache(row, tmp_path, monkeypatch):
    # a warm cache answers each window sum from its file: the same stdout,
    # and a row without the hyperbola method computes no window at all
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    argv = [*shlex.split(row["argv"]), "--cache-dir", str(tmp_path)]
    want = (row.get("exit", 0), row["md5"])
    windows = []
    real = arith._range_values

    def spy(spec, lo, hi):
        windows.append((lo, hi))
        return real(spec, lo, hi)

    try:
        assert run(argv) == want
        monkeypatch.setattr(arith, "_range_values", spy)
        assert run(argv) == want
    finally:
        arith.set_segment_cache(None)
    if "hyperbola" not in row["argv"]:
        assert windows == []
