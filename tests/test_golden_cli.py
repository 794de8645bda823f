"""CLI output stays byte-identical: the exit code and stdout md5 of each command.

Each command of ``golden_cli.json`` runs in process through ``cli.main``.  A
row may pin an ``exit`` code (default 0); a refusal writes nothing to stdout,
so its md5 is that of the empty string.  A mismatch fails, prints the row as
it now runs, ready to paste, and names the toolchain the table was made with
beside the running one, since float rows depend on numpy's ``log`` and on
libm.
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

from hyplab import cli
from hyplab.cache import CACHE_ENV_VAR

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("row", GOLDEN["commands"], ids=lambda r: r["argv"])
def test_cli_output_md5(row, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(shlex.split(row["argv"]))
    got = {"md5": hashlib.md5(buf.getvalue().encode()).hexdigest(), "argv": row["argv"]}
    if code != 0:
        got["exit"] = code
    assert (code, got["md5"]) == (row.get("exit", 0), row["md5"]), (
        f"now {json.dumps(got)}; table made with Python {GOLDEN['python']} "
        f"and numpy {GOLDEN['numpy']}, running Python "
        f"{platform.python_version()} and numpy {np.__version__}"
    )
