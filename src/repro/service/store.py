"""Content-addressed memoization of completed simulation cells.

One entry per :func:`repro.sim.parallel.cell_fingerprint` key: a JSON
file ``<key>.json`` holding the cell's ``{"outcome", "result"}``
payload (exactly the :func:`repro.sim.parallel.execute_cell` payload,
minus the grid-local ``index``), next to a ``<key>.json.sha256`` integrity sidecar
(:mod:`repro.resilience.integrity`).  The store is the server's source
of truth across restarts — a ``kill -9`` mid-grid loses in-flight
cells only; everything already stored is served back on resubmission —
and is equally usable by direct callers
(``run_suite(result_store=...)``, ``Sweep(result_store=...)``), so a
warmed store accelerates every execution path.

Write discipline mirrors the trace cache: writes are serialized with a
cross-process :class:`~repro.resilience.locks.FileLock` on the store
directory, land via atomic rename, and are **idempotent** — a key that
already verifies on disk is never rewritten, so two processes
completing the same cell concurrently produce exactly one entry.  A
read whose sidecar mismatches (bit rot, torn copy) deletes the entry,
counts ``result_store.corrupt_recovered``, and returns a miss so the
caller recomputes.

Eviction is last-N: ``max_entries`` caps the entry count and the
least-recently-*touched* entries (reads bump mtime) are dropped first.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional

from repro.common.errors import ConfigurationError
from repro.resilience.integrity import (
    remove_sidecar,
    sidecar_path,
    verify_sidecar,
    write_sidecar,
)
from repro.resilience.locks import FileLock
from repro.telemetry.registry import StatRegistry
from repro.telemetry.runtime import runtime_registry

STORE_FORMAT = 1

_KEY_HEX = frozenset("0123456789abcdef")


def _check_key(key: str) -> str:
    if len(key) != 64 or not set(key) <= _KEY_HEX:
        raise ConfigurationError(
            f"store keys are sha256 hex digests, got {key!r}"
        )
    return key


class ResultStore:
    """On-disk memo of completed cells, keyed by content address.

    ``max_entries=None`` disables eviction.  All counters land in the
    process-global runtime registry (``result_store.*``) unless a
    private ``registry`` is supplied (tests).
    """

    def __init__(
        self,
        directory: str,
        max_entries: Optional[int] = None,
        registry: Optional[StatRegistry] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.directory = directory
        self.max_entries = max_entries
        self._registry = registry if registry is not None else runtime_registry()
        os.makedirs(directory, exist_ok=True)

    # --- paths ---

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{_check_key(key)}.json")

    def _lock(self) -> FileLock:
        return FileLock(os.path.join(self.directory, ".store.lock"))

    # --- lookup ---

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored ``{"outcome", "result"}`` payload, or None.

        Verifies the sha256 sidecar before trusting the entry; a
        mismatch (or an unparseable file) evicts the entry, counts
        ``result_store.corrupt_recovered``, and misses so the caller
        recomputes — the same recover-by-recompute contract the trace
        cache keeps (``trace_cache.corrupt_recovered``).
        """
        path = self._path(key)
        if not os.path.exists(path):
            self._registry.add("result_store.misses")
            return None
        payload: Optional[Dict[str, object]] = None
        if verify_sidecar(path) is not False:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    decoded = json.load(handle)
                if (
                    isinstance(decoded, dict)
                    and decoded.get("key") == key
                    and isinstance(decoded.get("payload"), dict)
                ):
                    payload = decoded["payload"]
            except (OSError, json.JSONDecodeError):
                payload = None
        if payload is None:
            self._discard(path)
            self._registry.add("result_store.corrupt_recovered")
            self._registry.add("result_store.misses")
            return None
        self._touch(path)
        self._registry.add("result_store.hits")
        return payload

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    # --- publication ---

    def put(self, key: str, payload: Dict[str, object]) -> str:
        """Persist one cell payload under ``key``; returns the path.

        Idempotent: an existing entry that still verifies is left
        untouched (payloads are deterministic functions of the key, so
        there is nothing to reconcile).  The write itself is atomic and
        serialized under the store lock; eviction runs in the same
        critical section.
        """
        path = self._path(key)
        with self._lock():
            if os.path.exists(path) and verify_sidecar(path) is not False:
                return path
            body = {"format": STORE_FORMAT, "key": key, "payload": payload}
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(body, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            write_sidecar(path)
            self._registry.add("result_store.writes")
            if self.max_entries is not None:
                self._evict(keep=path)
        return path

    # --- maintenance ---

    def entries(self) -> int:
        """Number of entries currently on disk."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        return sum(1 for n in names if n.endswith(".json"))

    def _touch(self, path: str) -> None:
        try:
            now = time.time()
            os.utime(path, (now, now))
        except OSError:
            pass

    def _discard(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass
        remove_sidecar(path)

    def _evict(self, keep: Optional[str] = None) -> None:
        """Drop least-recently-touched entries past ``max_entries``."""
        assert self.max_entries is not None
        try:
            names = [
                n for n in os.listdir(self.directory) if n.endswith(".json")
            ]
        except OSError:
            return
        if len(names) <= self.max_entries:
            return
        stamped = []
        for name in names:
            path = os.path.join(self.directory, name)
            try:
                stamped.append((os.stat(path).st_mtime, path))
            except OSError:
                continue
        stamped.sort()
        for _, path in stamped[: max(0, len(stamped) - self.max_entries)]:
            if path == keep:
                continue
            self._discard(path)
            self._registry.add("result_store.evicted")

    def sidecar_for(self, key: str) -> str:
        """The integrity sidecar path for ``key`` (tests corrupt via this)."""
        return sidecar_path(self._path(key))

    def path_for(self, key: str) -> str:
        """The entry path for ``key`` (whether or not it exists yet)."""
        return self._path(key)
