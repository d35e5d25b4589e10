"""Sweep checkpoint format v2: checksums and salvage.

A checkpoint wraps the completed cells in integrity metadata, so a
torn copy, disk damage or a truncated download of a CI artifact is
detected and recovered from instead of forcing a re-run of the whole
grid::

    {
      "format": 2,
      "signature": "<sweep signature sha256>",
      "checksum": "<sha256 of the canonical cells JSON>",
      "cells": {point-key: {benchmark: {"outcome": ..., "result": ...,
                                        "crc": "<sha256 of the record>"}}}
    }

Three layers of defense, used in order on load:

1. **file checksum** — cheap whole-body check; a mismatch means the
   JSON parsed but was altered, so only records whose own ``crc`` seal
   verifies are kept.
2. **record seals** — every cell record authenticates itself, so the
   salvage path can trust individual cells out of an otherwise mangled
   file instead of refusing to resume.
3. **structural salvage** — when the file is not valid JSON at all
   (truncation), a tolerant sequential parser recovers every complete,
   seal-verified record before the damage.

A file without ``format``/``checksum`` keys (the retired v1 layout)
fails the checksum, so only sealed records survive: its unsealed cells
are rejected with a warning and re-run, and the next flush writes v2.

Writes are serialized with a cross-process :class:`FileLock` and
*merge* with same-signature cells already on disk, so two sweeps
sharing one checkpoint path cannot lose each other's completed cells
to a read-modify-write race (cell payloads are deterministic functions
of the signature, so merging is conflict-free by construction).
"""

from __future__ import annotations

import json
import os
import re
import warnings
from typing import Dict, Optional

from repro.common.errors import ConfigurationError
from repro.resilience.integrity import (
    digest_bytes,
    seal_record,
    strip_record,
    verify_record,
)
from repro.resilience.locks import FileLock
from repro.telemetry.registry import StatRegistry
from repro.telemetry.runtime import runtime_registry

CHECKPOINT_FILE_FORMAT = 2

Cells = Dict[str, Dict[str, dict]]

_SIGNATURE_RE = re.compile(r'"signature"\s*:\s*"([0-9a-f]{64})"')


def cells_checksum(cells: Cells) -> str:
    return digest_bytes(json.dumps(cells, sort_keys=True).encode("utf-8"))


def _signature_mismatch(path: str) -> ConfigurationError:
    return ConfigurationError(
        f"checkpoint {path!r} belongs to a different sweep "
        "(signature mismatch); delete it or pick another path"
    )


def _valid_record(record: object) -> bool:
    if not isinstance(record, dict):
        return False
    outcome = record.get("outcome")
    if not isinstance(outcome, dict) or "status" not in outcome:
        return False
    return "attempts" in outcome


def _verified_cells(
    cells: Cells, registry: StatRegistry, require_seal: bool
) -> Cells:
    """Structurally valid, seal-verified records, with seals stripped."""
    kept: Cells = {}
    rejected = 0
    for point_key, benches in cells.items():
        if not isinstance(benches, dict):
            rejected += len(benches) if hasattr(benches, "__len__") else 1
            continue
        survivors = {}
        for benchmark, record in benches.items():
            if (
                _valid_record(record)
                and verify_record(record)
                and not (require_seal and "crc" not in record)
            ):
                survivors[benchmark] = strip_record(record)
            else:
                rejected += 1
        kept[point_key] = survivors
    if rejected:
        registry.add("checkpoint.record_rejected", rejected)
    return kept


def read_checkpoint(
    path: str, signature: str, registry: Optional[StatRegistry] = None
) -> Cells:
    """Completed cells from ``path``, verified (and salvaged) as needed.

    Raises :class:`ConfigurationError` only when the file provably
    belongs to a different sweep, or is so mangled that not even its
    signature can be recovered (resuming over foreign state would be
    worse than re-running).  Every other corruption mode degrades to
    salvage: keep what verifies, warn, count, re-run the rest.
    """
    registry = registry if registry is not None else runtime_registry()
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(
            f"unreadable sweep checkpoint {path!r}: {exc}"
        ) from exc

    payload: Optional[dict] = None
    try:
        decoded = json.loads(text)
        if isinstance(decoded, dict):
            payload = decoded
    except json.JSONDecodeError:
        payload = None

    if payload is not None:
        if payload.get("signature") != signature:
            raise _signature_mismatch(path)
        cells = payload.get("cells", {})
        if not isinstance(cells, dict):
            raise ConfigurationError(f"malformed sweep checkpoint {path!r}")
        if payload.get("checksum") == cells_checksum(cells):
            return _verified_cells(cells, registry, require_seal=False)
        # Valid JSON whose body no longer matches its checksum: trust
        # only self-authenticating records.
        registry.add("checkpoint.checksum_mismatch")
        salvaged = _verified_cells(cells, registry, require_seal=True)
        _count_salvage(path, salvaged, registry)
        return salvaged

    # Not JSON at all (truncated / overwritten mid-file).
    found = _SIGNATURE_RE.search(text)
    if found is None:
        raise ConfigurationError(
            f"unreadable sweep checkpoint {path!r}: not JSON and no "
            "recoverable signature"
        )
    if found.group(1) != signature:
        raise _signature_mismatch(path)
    salvaged = _verified_cells(
        _salvage_cells_text(text), registry, require_seal=True
    )
    _count_salvage(path, salvaged, registry)
    return salvaged


def _count_salvage(path: str, salvaged: Cells, registry: StatRegistry) -> None:
    recovered = sum(len(benches) for benches in salvaged.values())
    registry.add("checkpoint.salvaged")
    registry.add("checkpoint.salvaged_cells", recovered)
    warnings.warn(
        f"sweep checkpoint {path!r} was corrupted; salvaged {recovered} "
        "verified cells and will re-run the rest",
        RuntimeWarning,
        stacklevel=3,
    )


def write_checkpoint(
    path: str,
    signature: str,
    cells: Cells,
    registry: Optional[StatRegistry] = None,
) -> None:
    """Atomically persist ``cells`` as format v2, merged under a lock.

    Same-signature cells already on disk (another process flushing into
    the same path, or an interrupted prior run) are kept unless this
    process has its own copy of the cell; payloads are deterministic
    per signature, so the merge cannot produce conflicting values.
    """
    registry = registry if registry is not None else runtime_registry()
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with FileLock(path + ".lock"):
        merged: Cells = {}
        if os.path.exists(path):
            try:
                on_disk = read_checkpoint(path, signature, registry)
            except ConfigurationError:
                on_disk = {}  # foreign or hopeless; overwrite
            for point_key, benches in on_disk.items():
                merged.setdefault(point_key, {}).update(benches)
        for point_key, benches in cells.items():
            merged.setdefault(point_key, {}).update(benches)
        sealed: Cells = {
            point_key: {
                benchmark: seal_record(record)
                for benchmark, record in benches.items()
            }
            for point_key, benches in merged.items()
        }
        payload = {
            "format": CHECKPOINT_FILE_FORMAT,
            "signature": signature,
            "checksum": cells_checksum(sealed),
            "cells": sealed,
        }
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)


# --- structural salvage of non-JSON files ---


def _skip_filler(text: str, i: int) -> int:
    while i < len(text) and text[i] in " \t\r\n,":
        i += 1
    return i


def _skip_colon(text: str, i: int) -> Optional[int]:
    i = _skip_filler(text, i)
    if i >= len(text) or text[i] != ":":
        return None
    return _skip_filler(text, i + 1)


def _salvage_cells_text(text: str) -> Cells:
    """Best-effort sequential recovery of complete cell records.

    Walks the ``"cells"`` object with a tolerant parser: every
    ``point-key -> {benchmark -> record}`` pair that decodes completely
    is kept; the first undecodable byte ends recovery (everything after
    a truncation point is gone anyway).  Records are *not* verified
    here — :func:`_verified_cells` applies structure and seal checks.
    """
    decoder = json.JSONDecoder()
    anchor = re.search(r'"cells"\s*:\s*\{', text)
    if anchor is None:
        return {}
    recovered: Cells = {}
    i = anchor.end()  # just past the '{' of the cells object
    while i < len(text):
        i = _skip_filler(text, i)
        if i >= len(text) or text[i] == "}":
            break
        try:
            point_key, j = decoder.raw_decode(text, i)
        except ValueError:
            break
        if not isinstance(point_key, str):
            break
        j2 = _skip_colon(text, j)
        if j2 is None:
            break
        benches, end, complete = _salvage_point(text, j2, decoder)
        if benches:
            recovered.setdefault(point_key, {}).update(benches)
        if not complete:
            break
        i = end
    return recovered


def _salvage_point(text: str, i: int, decoder: json.JSONDecoder):
    """Tolerantly parse one point's ``{benchmark: record}`` object."""
    if i >= len(text) or text[i] != "{":
        return {}, i, False
    i += 1
    out: Dict[str, dict] = {}
    while i < len(text):
        i = _skip_filler(text, i)
        if i >= len(text):
            return out, i, False
        if text[i] == "}":
            return out, i + 1, True
        try:
            benchmark, j = decoder.raw_decode(text, i)
            j2 = _skip_colon(text, j)
            if j2 is None or not isinstance(benchmark, str):
                return out, i, False
            record, end = decoder.raw_decode(text, j2)
        except ValueError:
            return out, i, False
        if isinstance(record, dict):
            out[benchmark] = record
        i = end
    return out, i, False
