"""Worker-side memo of memory-mapped trace-cache entries.

A :class:`~repro.workloads.tracegen.TraceCache` entry is one
uncompressed ``.npy`` of aligned records with a ``.sha256`` sidecar
(see :meth:`~repro.workloads.trace.Trace.save`).  A pool worker
reaches its trace through :func:`load_mmap_trace`: the first call per
process verifies the sidecar and maps the file read-only
(``transport.trace_loads``), so the columns are views shared between
every worker on the host through the page cache.  Later calls return
the same :class:`Trace` object (``transport.trace_reuses``), and its
``decoded_batch``/``split`` caches survive across cells: a worker
decodes each trace at most once, however many cells it executes.

A missing, corrupt or mismatched entry counts ``transport.mmap_unusable``
and returns ``None``; the worker then regenerates the trace from the
cell's own parameters, bit-identically, because a trace is a pure
function of its cache key.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.common.errors import ConfigurationError
from repro.resilience.integrity import verify_sidecar
from repro.telemetry.runtime import runtime_registry
from repro.workloads.interleave import spec_records
from repro.workloads.trace import Trace

#: Traces this process already mapped, by entry path; the cached
#: object carries its decode caches with it.
_LOADED: Dict[str, Trace] = {}


def load_mmap_trace(
    path: str, benchmark: str, n_references: int
) -> Optional[Trace]:
    """The memoized mapped :class:`Trace` for a cache entry, or None.

    ``benchmark`` is the entry's trace spec; the entry holds
    :func:`~repro.workloads.interleave.spec_records` records.
    """
    reg = runtime_registry()
    records = spec_records(benchmark, n_references)
    cached = _LOADED.get(path)
    if cached is not None:
        if cached.benchmark != benchmark or len(cached) != records:
            reg.add("transport.mmap_unusable")
            return None
        reg.add("transport.trace_reuses")
        return cached
    if verify_sidecar(path) is not True:
        reg.add("transport.mmap_unusable")
        return None
    try:
        trace = Trace.load(path, benchmark, records)
    except ConfigurationError:
        reg.add("transport.mmap_unusable")
        return None
    _LOADED[path] = trace
    reg.add("transport.trace_loads")
    return trace


def forget(paths: Iterable[str]) -> None:
    """Drop the memoized traces of deleted entries, unmapping their files."""
    for path in paths:
        _LOADED.pop(path, None)


def reset_for_tests() -> None:
    """Drop the process memo (tests that rewrite entries need this)."""
    _LOADED.clear()
