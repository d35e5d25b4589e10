"""Sampled, bounded JSONL event tracing.

Caches emit structural events — placement, demotion, promotion,
writeback, fault-retire — through an :class:`EventTracer`.  Tracing a
full run would dwarf the simulation itself, so the tracer is bounded
three ways:

* **sampling** — keep every ``sample``-th event (per tracer, counted
  over all kinds, so the kept stream is a deterministic decimation);
* **head bounding** — with ``ring=False`` the first ``limit`` kept
  events are stored and the rest only counted (``dropped``);
* **ring buffer** — with ``ring=True`` the *last* ``limit`` kept
  events survive, which is the mode for "what led up to the crash".

``flush()`` writes JSON Lines atomically (temp file + ``os.replace``,
the same pattern the result store uses) so a reader never sees a
torn trace.  Every event carries ``seq`` — its position in the *full*
event stream — so sampled or truncated traces still order and align
across caches.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Deque, Dict, Iterable, List, Mapping, Optional

from repro.common.errors import ConfigurationError

#: Event kinds the caches emit; tracers accept any kind, this is the
#: vocabulary instrumentation uses (and reports group by).
EVENT_KINDS = (
    "placement",
    "demotion",
    "promotion",
    "writeback",
    "eviction",
    "fault_retire",
)


class EventTracer:
    """Collects simulator events under a sampling + bounding policy."""

    def __init__(
        self,
        sample: int = 1,
        limit: Optional[int] = 100_000,
        ring: bool = False,
    ) -> None:
        if sample < 1:
            raise ConfigurationError(f"sample must be >= 1, got {sample}")
        if limit is not None and limit < 1:
            raise ConfigurationError(f"limit must be >= 1, got {limit}")
        self.sample = sample
        self.limit = limit
        self.ring = ring
        self._events: Deque[Dict[str, object]] = deque(
            maxlen=limit if ring else None
        )
        #: All events offered, before sampling or bounding.
        self.seen = 0
        #: Events that passed sampling but were dropped by the head bound
        #: (head mode) or displaced out of the ring (ring mode).
        self.dropped = 0
        self.per_kind: Dict[str, int] = {}

    def emit(self, kind: str, **fields: object) -> None:
        """Offer one event; cheap when sampled out."""
        self.seen += 1
        self.per_kind[kind] = self.per_kind.get(kind, 0) + 1
        if (self.seen - 1) % self.sample:
            return
        if self.ring:
            if self.limit is not None and len(self._events) == self.limit:
                self.dropped += 1
        elif self.limit is not None and len(self._events) >= self.limit:
            self.dropped += 1
            return
        event: Dict[str, object] = {"seq": self.seen, "kind": kind}
        event.update(fields)
        self._events.append(event)

    def events(self) -> List[Dict[str, object]]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def summary(self) -> Dict[str, object]:
        """Bounding bookkeeping for the run payload (JSON-safe)."""
        return {
            "seen": self.seen,
            "kept": len(self._events),
            "dropped": self.dropped,
            "sample": self.sample,
            "ring": self.ring,
            "per_kind": dict(sorted(self.per_kind.items())),
        }

    def flush(self, path: str) -> str:
        """Atomically write the kept events as JSON Lines; returns path.

        The first line is a ``meta`` record carrying the bounding
        summary, so a truncated trace is self-describing.
        """
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"kind": "meta", **self.summary()}, sort_keys=True)
            )
            handle.write("\n")
            for event in self._events:
                handle.write(json.dumps(event, sort_keys=True))
                handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path


def read_trace(path: str) -> List[Dict[str, object]]:
    """Load a JSONL trace written by :meth:`EventTracer.flush`."""
    events = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"unreadable trace {path!r}: {exc}") from exc
    return events


def trace_summary(events: Iterable[Mapping[str, object]]) -> Dict[str, int]:
    """Event counts by kind for a loaded trace (meta line excluded)."""
    counts: Dict[str, int] = {}
    for event in events:
        kind = str(event.get("kind", "?"))
        if kind == "meta":
            continue
        counts[kind] = counts.get(kind, 0) + 1
    return dict(sorted(counts.items()))
