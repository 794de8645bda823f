"""On-disk cache of sieved value tables.

One file per (spec, lo, hi) with a fixed little-endian layout:

    8 bytes   magic  b"HYPLABVT"
    u32       format version
    u8        dtype tag (0 = int64, 1 = float64)
    3 bytes   reserved (zero)
    i64, i64  lo, hi
    u16       length of the canonical spec key
    bytes     spec key (utf-8)
    bytes     payload, (hi - lo + 1) fixed-width little-endian records
    8 bytes   checksum, blake2b-64 of everything above

A version or checksum mismatch invalidates the file: the caller recomputes
and rewrites, never partially reuses.  Loads are bit-exact, so warm and cold
runs produce identical output.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
import tempfile

import numpy as np

from .specs import FuncSpec

__all__ = ["SegmentCache", "CACHE_ENV_VAR"]

CACHE_ENV_VAR = "HYPLAB_CACHE_DIR"

_MAGIC = b"HYPLABVT"
_VERSION = 2
_HEADER = struct.Struct("<8sIB3sqqH")


def _checksum(blob: bytes) -> bytes:
    return hashlib.blake2b(blob, digest_size=8).digest()


class SegmentCache:
    """Directory-backed table cache with checksummed fixed-width records."""

    def __init__(self, directory: str, *, warn_stream=None) -> None:
        self.directory = directory
        self.warn_stream = warn_stream if warn_stream is not None else sys.stderr
        os.makedirs(directory, exist_ok=True)

    def _path(self, spec: FuncSpec, lo: int, hi: int) -> str:
        key = f"{spec.key}:{lo}:{hi}:{_VERSION}".encode()
        name = hashlib.blake2b(key, digest_size=16).hexdigest()
        return os.path.join(self.directory, f"{name}.vt")

    def load(self, spec: FuncSpec, lo: int, hi: int) -> np.ndarray | None:
        path = self._path(spec, lo, hi)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        arr = self._decode(spec, lo, hi, blob)
        if arr is None:
            self.warn_stream.write(
                f"hyplab: cache entry {os.path.basename(path)} invalid, recomputing\n"
            )
            try:
                os.unlink(path)
            except OSError:
                pass
        return arr

    def _decode(self, spec, lo, hi, blob) -> np.ndarray | None:
        if len(blob) < _HEADER.size + 8:
            return None
        body, digest = blob[:-8], blob[-8:]
        if _checksum(body) != digest:
            return None
        magic, version, tag, _, flo, fhi, klen = _HEADER.unpack_from(body)
        if magic != _MAGIC or version != _VERSION:
            return None
        if (flo, fhi) != (lo, hi):
            return None
        off = _HEADER.size
        if body[off : off + klen].decode("utf-8", "replace") != spec.key:
            return None
        payload = body[off + klen :]
        count = hi - lo + 1
        dtype = "<i8" if tag == 0 else "<f8"
        if len(payload) != 8 * count:
            return None
        arr = np.frombuffer(payload, dtype=dtype).copy()
        return arr.astype(np.int64 if tag == 0 else np.float64)

    def store(self, spec: FuncSpec, lo: int, hi: int, values: np.ndarray) -> None:
        if values.dtype.kind == "i":
            tag, data = 0, values.astype("<i8").tobytes()
        elif values.dtype.kind == "f":
            tag, data = 1, values.astype("<f8").tobytes()
        else:
            return  # escalated big-int tables are not cached
        key = spec.key.encode()
        body = _HEADER.pack(_MAGIC, _VERSION, tag, b"\0" * 3, lo, hi, len(key))
        blob = body + key + data
        blob += _checksum(blob)
        path = self._path(spec, lo, hi)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
