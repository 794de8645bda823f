"""On-disk cache of exact window sums, read and written by short_sum_bruteforce.

One file per (spec, x, y) holds the sum over (x, x+y], little-endian:

    8 bytes   magic  b"HYPLABVT"
    u32       format version
    i64, i64  x, y
    u16       length of the canonical spec key
    bytes     spec key (utf-8)
    bytes     the sum as ASCII hex: ``hex(n)`` for an integer spec's sum of
              any size, ``float.hex`` for a real spec's
    8 bytes   checksum, blake2b-64 of everything above

A version, checksum or payload mismatch invalidates the file: the caller
recomputes and rewrites.  Loads are exact, so warm and cold runs produce
identical output.  Version 2 held sieved windows; no such file is read.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import sys
import tempfile

from .specs import FuncSpec

__all__ = ["SegmentCache", "CACHE_ENV_VAR"]

CACHE_ENV_VAR = "HYPLAB_CACHE_DIR"

_MAGIC = b"HYPLABVT"
_VERSION = 3
_HEADER = struct.Struct("<8sIqqH")


def _checksum(blob: bytes) -> bytes:
    return hashlib.blake2b(blob, digest_size=8).digest()


class SegmentCache:
    """Checksummed files in a directory, made here: an unusable path raises OSError."""

    def __init__(self, directory: str, *, warn_stream=None) -> None:
        self.directory = directory
        self.warn_stream = warn_stream if warn_stream is not None else sys.stderr
        os.makedirs(directory, exist_ok=True)

    def _path(self, spec: FuncSpec, x: int, y: int) -> str:
        key = f"{spec.key}:{x}:{y}:{_VERSION}".encode()
        name = hashlib.blake2b(key, digest_size=16).hexdigest()
        return os.path.join(self.directory, f"{name}.vt")

    def load(self, spec: FuncSpec, x: int, y: int) -> int | float | None:
        """The cached sum of ``spec`` over (x, x+y], or None."""
        path = self._path(spec, x, y)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        total = self._decode(spec, x, y, blob)
        if total is None:
            self.warn_stream.write(
                f"hyplab: cache entry {os.path.basename(path)} invalid, recomputing\n"
            )
            with contextlib.suppress(OSError):
                os.unlink(path)
        return total

    def _decode(self, spec, x, y, blob) -> int | float | None:
        body, digest = blob[:-8], blob[-8:]
        if len(body) < _HEADER.size or _checksum(body) != digest:
            return None
        magic, version, fx, fy, klen = _HEADER.unpack_from(body)
        key = body[_HEADER.size : _HEADER.size + klen]
        if (magic, version, fx, fy, key) != (_MAGIC, _VERSION, x, y, spec.key.encode()):
            return None
        try:
            text = body[_HEADER.size + klen :].decode("ascii")
            return int(text, 16) if spec.integer_valued else float.fromhex(text)
        except ValueError:  # UnicodeDecodeError included
            return None

    def store(self, spec: FuncSpec, x: int, y: int, total: int | float) -> None:
        """Write the sum of ``spec`` over (x, x+y]; a failed write is skipped."""
        key = spec.key.encode()
        text = hex(total) if spec.integer_valued else total.hex()
        blob = _HEADER.pack(_MAGIC, _VERSION, x, y, len(key)) + key + text.encode()
        blob += _checksum(blob)
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, self._path(spec, x, y))
        except OSError:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
