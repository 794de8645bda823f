"""CLI output stays byte-identical: the md5 of each pinned command's stdout.

Each command of ``golden_cli.json`` runs in process through ``cli.main``.  A
mismatch fails and names the toolchain the table was made with beside the
running one, since float rows depend on numpy's ``log`` and on libm.
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
        assert cli.main(shlex.split(row["argv"])) == 0
    got = hashlib.md5(buf.getvalue().encode()).hexdigest()
    assert got == row["md5"], (
        f"stdout md5 {got}, pinned {row['md5']}; table made with Python "
        f"{GOLDEN['python']} and numpy {GOLDEN['numpy']}, running Python "
        f"{platform.python_version()} and numpy {np.__version__}"
    )
