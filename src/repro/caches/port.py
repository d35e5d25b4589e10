"""Busy-time scheduling for cache ports and banks.

The paper's bandwidth argument (§2.3) is central: NuRAPID is one-ported
and non-banked, so "any outstanding swaps must complete before a new
access is initiated", while D-NUCA is multi-banked with an (idealized)
infinite-bandwidth switched network, so requests only ever queue on
individual banks.  Both behaviours reduce to the same primitive: a
resource that serializes occupancy intervals, granting a request at
``max(now, busy_until)``.

A lower level keeps the busy-time state of all its ports or banks in
one :class:`PortArray`: four flat lists indexed by resource.  The
levels' timing steps (see DESIGN.md, "Lower-level outcome and timing")
apply the grant rule through :meth:`PortArray.claim`, or inline on
those lists in the hottest loops; :meth:`PortArray.request` is the
same rule with its argument checks.  Occupancies are validated once,
when a level is built (:func:`checked_occupancy`), and timestamps where
a timing fold starts, so a timing step needs neither check.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Tuple

from repro.common.errors import SimulationError


def checked_occupancy(owner: str, durations: Iterable[float]) -> List[float]:
    """``durations`` as a list, rejecting any negative occupancy."""
    out = list(durations)
    for duration in out:
        if duration < 0:
            raise SimulationError(f"negative occupancy {duration} on {owner}")
    return out


def check_timestamp(owner: str, now: float) -> None:
    """Reject a negative arrival time (the clock starts at zero)."""
    if now < 0:
        raise SimulationError(f"negative timestamp {now} on {owner}")


class PortTotals(NamedTuple):
    """One resource's busy-time state, read off a :class:`PortArray`."""

    busy_until: float
    total_busy: float
    total_wait: float
    grants: int


class PortArray:
    """``n`` serially-reusable resources (ports or banks), in flat lists.

    Time is measured in cycles and must be presented non-decreasingly
    per resource by the caller (the simulation driver's clock).
    """

    def __init__(self, name: str = "port", n: int = 1) -> None:
        if n < 1:
            raise SimulationError(f"{name} needs at least one port, got {n}")
        self.name = name
        self.busy_until: List[float] = [0.0] * n
        self.total_busy: List[float] = [0.0] * n
        self.total_wait: List[float] = [0.0] * n
        self.grants: List[int] = [0] * n

    def __len__(self) -> int:
        return len(self.grants)

    def __getitem__(self, index: int) -> PortTotals:
        if not 0 <= index < len(self.grants):
            raise IndexError(f"{self.name} has no port {index}")
        return PortTotals(
            self.busy_until[index],
            self.total_busy[index],
            self.total_wait[index],
            self.grants[index],
        )

    def request(self, index: int, now: float, duration: float) -> Tuple[float, float]:
        """Claim resource ``index``; returns (start, finish) cycles.

        ``duration`` is how long the resource stays busy; the caller's
        observable latency may be longer (e.g. wire time after the bank
        is released) or shorter (fire-and-forget writebacks).
        """
        owner = f"{self.name}[{index}]"
        checked_occupancy(owner, (duration,))
        check_timestamp(owner, now)
        start = self.claim(index, now, duration)
        return start, self.busy_until[index]

    def claim(self, index: int, now: float, duration: float) -> float:
        """The grant rule without :meth:`request`'s checks (a timing
        step's occupancies were checked at build); returns the start."""
        busy = self.busy_until[index]
        start = now if now >= busy else busy
        self.busy_until[index] = start + duration
        self.total_busy[index] += duration
        self.total_wait[index] += start - now
        self.grants[index] += 1
        return start

    def pending_depth(self, index: int, now: float, service: float) -> int:
        """Whole ``service``-cycle quanta queued on ``index`` ahead of ``now``.

        With fixed-duration requests this is exactly the number of
        earlier requests still unserved — the queue depth a new
        arrival observes.
        """
        wait = self.busy_until[index] - now
        if wait <= 0 or service <= 0:
            return 0
        return int(-(-wait // service))

    def reset_totals(self) -> None:
        """Zero the busy, wait and grant totals in place; the
        timelines (``busy_until``) are kept so queueing stays causal."""
        n = len(self.grants)
        self.total_busy[:] = [0.0] * n
        self.total_wait[:] = [0.0] * n
        self.grants[:] = [0] * n

    def reset(self) -> None:
        """Back to idle at cycle zero."""
        self.reset_totals()
        self.busy_until[:] = [0.0] * len(self.grants)
