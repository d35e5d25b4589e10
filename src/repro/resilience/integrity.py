"""Content checksums for on-disk artifacts.

Two flavors:

* **file sidecars** — a ``<file>.sha256`` next to a binary artifact
  (trace-cache ``.npy`` entries, result-store entries) holding the hex
  digest of the file's bytes.  A torn, truncated, or bit-rotted file
  is detected on load without trying to parse or map it.
* **record seals** — a ``"crc"`` field embedded in each checkpoint cell
  record, covering the record's canonical JSON.  The checkpoint salvage
  path uses these to authenticate individual cells out of a corrupted
  file: a record that parses but fails its seal is dropped rather than
  trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

SIDECAR_SUFFIX = ".sha256"
RECORD_CRC_KEY = "crc"


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


# --- record seals ---


def _canonical(record: Dict[str, object]) -> bytes:
    body = {k: v for k, v in record.items() if k != RECORD_CRC_KEY}
    return json.dumps(body, sort_keys=True).encode("utf-8")


def seal_record(record: Dict[str, object]) -> Dict[str, object]:
    """A copy of ``record`` carrying its own content checksum."""
    sealed = dict(record)
    sealed[RECORD_CRC_KEY] = digest_bytes(_canonical(record))
    return sealed


def verify_record(record: Dict[str, object]) -> bool:
    """True when the record has no seal (legacy) or the seal matches."""
    recorded = record.get(RECORD_CRC_KEY)
    if recorded is None:
        return True
    return recorded == digest_bytes(_canonical(record))


def strip_record(record: Dict[str, object]) -> Dict[str, object]:
    """The record without its seal (for consumers and comparisons)."""
    if RECORD_CRC_KEY not in record:
        return record
    return {k: v for k, v in record.items() if k != RECORD_CRC_KEY}
