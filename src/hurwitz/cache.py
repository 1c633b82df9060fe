"""Content-addressed on-disk cache of a job's enumerated rows.

Each entry is one file named ``<key>.bin`` holding a small JSON header
(the key and the caller's meta) plus a flat integer payload, followed by
a SHA-256 digest of everything before it.  Corrupt entries (bad magic,
bad digest, bad header, or data the caller's decoder rejects) are
discarded and recomputed with a warning rather than trusted.  A missing
entry is a miss; any other I/O failure is an InputError naming the
directory.

A store writes a temporary file, syncs it and renames it over the entry,
so concurrent readers see either the old or the new complete file; a
failed store removes its temporary file.  A store also removes the key's
files of the earlier two-file layout, if any.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import warnings
from array import array
from collections.abc import Callable
from pathlib import Path

from .errors import InputError

_MAGIC = b"HWZCACH2"  # version 2: rows hold element indices, not images


class CacheCorrupt(Warning):
    """A cache file failed validation and was ignored."""


def _encode(header: dict, data: list[int]) -> bytes:
    payload = array("q", data).tobytes()
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = _MAGIC + struct.pack(">I", len(head)) + head + payload
    return body + hashlib.sha256(body).digest()


def _decode(blob: bytes) -> tuple[dict, list[int]]:
    if len(blob) < len(_MAGIC) + 4 + 32 or not blob.startswith(_MAGIC):
        raise ValueError("bad magic or truncated file")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ValueError("digest mismatch")
    (head_len,) = struct.unpack(">I", body[len(_MAGIC):len(_MAGIC) + 4])
    head_start = len(_MAGIC) + 4
    header = json.loads(body[head_start:head_start + head_len].decode())
    if not isinstance(header, dict) or not isinstance(header.get("meta", {}), dict):
        raise ValueError("header or its meta is not an object")
    payload = body[head_start + head_len:]
    arr = array("q")
    arr.frombytes(payload)
    return header, list(arr)


class ResultCache:
    """Keyed store of integer arrays; a disabled cache ignores all calls."""

    def __init__(self, directory: str | os.PathLike | None, enabled: bool = True):
        self.directory = Path(directory) if directory is not None else None
        self.enabled = enabled and self.directory is not None
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.bin"

    def load(self, key: str, decode: Callable[[dict, list[int]], object] | None = None):
        """The entry's (meta, data), or ``decode(meta, data)`` if given.

        Returns None on a miss.  An entry that fails its digest or header
        check, or whose ``decode`` raises ValueError, is reported with a
        CacheCorrupt warning, deleted and counted as a miss.  An unreadable
        directory raises InputError.
        """
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            raise self._unusable(exc) from exc
        try:
            header, data = _decode(blob)
            if header.get("key") != key:
                raise ValueError("header does not match the requested entry")
            meta = header.get("meta", {})
            value = (meta, data) if decode is None else decode(meta, data)
        except ValueError as exc:
            warnings.warn(
                f"discarding corrupt cache entry {path.name}: {exc}", CacheCorrupt
            )
            with contextlib.suppress(OSError):
                os.unlink(path)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def store(self, key: str, meta: dict, data: list[int]) -> None:
        if not self.enabled:
            return
        path = self._path(key)
        blob = _encode({"key": key, "meta": meta}, data)
        tmp = path.with_suffix(".tmp." + str(os.getpid()))
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            for old in (f"{key}.tuples.bin", f"{key}.components.bin"):  # the earlier layout
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path.parent / old)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise self._unusable(exc) from exc

    def _unusable(self, exc: OSError) -> InputError:
        return InputError(f"cannot use cache directory {self.directory}: {exc}")
