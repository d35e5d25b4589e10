"""Content checksums for on-disk artifacts.

A file sidecar is a ``<file>.sha256`` next to an artifact (trace-cache
``.npy`` entries, result-store entries) holding the hex digest of the
file's bytes.  A torn, truncated, or bit-rotted file is detected on
load without trying to parse or map it, and its owner recomputes it.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional

SIDECAR_SUFFIX = ".sha256"


def digest_file(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


def sidecar_path(path: str) -> str:
    return path + SIDECAR_SUFFIX


def write_sidecar(path: str) -> str:
    """Write ``<path>.sha256`` atomically; returns the sidecar path."""
    digest = digest_file(path)
    target = sidecar_path(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(digest + "\n")
    os.replace(tmp, target)
    return target


def read_sidecar(path: str) -> Optional[str]:
    """The recorded digest for ``path``, or None if no sidecar exists."""
    try:
        with open(sidecar_path(path), "r", encoding="utf-8") as handle:
            return handle.read().strip() or None
    except OSError:
        return None


def verify_sidecar(path: str) -> Optional[bool]:
    """True/False when a sidecar exists and (mis)matches; None without one.

    A missing sidecar is not a verdict; the caller decides.  The result
    store still reads such an entry, while the trace cache regenerates
    it.
    """
    recorded = read_sidecar(path)
    if recorded is None:
        return None
    try:
        return digest_file(path) == recorded
    except OSError:
        return False


def remove_sidecar(path: str) -> None:
    try:
        os.remove(sidecar_path(path))
    except OSError:
        pass

