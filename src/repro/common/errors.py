"""Exception hierarchy for the repro package.

All errors raised intentionally by the simulator derive from
:class:`ReproError` so callers can catch simulator problems without
swallowing genuine Python bugs (``TypeError``, ``KeyError``, ...).
"""


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or invalid parameters.

    Raised eagerly at construction time (never mid-simulation) so that
    a bad experiment config fails before any cycles are simulated.
    """


class SimulationError(ReproError):
    """An invariant was violated while a simulation was running.

    This always indicates a bug in the simulator (or a hand-corrupted
    state), never a property of the simulated workload.
    """


class FaultError(ReproError):
    """A modeled hardware fault had architecturally visible effects.

    Unlike :class:`SimulationError`, this is a *property of the
    simulated machine* under fault injection (:mod:`repro.faults`), not
    a simulator bug: the run was healthy but the injected fault could
    not be masked by ECC or spares.
    """


class SupervisionError(ReproError):
    """The supervised executor gave up on a cell or its worker pool.

    Subclasses say why.  These surface in the parent only for
    non-isolated cells (suite semantics); sweep-style isolated cells
    record them as failed outcomes instead.
    """


class WorkerTimeoutError(SupervisionError):
    """A cell exceeded its wall-clock deadline and its worker was killed."""

    def __init__(self, index: int, timeout_s: float, kills: int) -> None:
        super().__init__(
            f"cell {index} exceeded its {timeout_s:g}s wall-clock deadline "
            f"({kills} worker kill{'s' if kills != 1 else ''}); quarantined"
        )
        self.index = index
        self.timeout_s = timeout_s
        self.kills = kills

    def __reduce__(self):
        return (type(self), (self.index, self.timeout_s, self.kills))


class WorkerCrashError(SupervisionError):
    """A worker process died (signal, OOM kill) while running a cell."""

    def __init__(self, index: int, kills: int) -> None:
        super().__init__(
            f"worker died while running cell {index} "
            f"({kills} time{'s' if kills != 1 else ''}); quarantined"
        )
        self.index = index
        self.kills = kills

    def __reduce__(self):
        return (type(self), (self.index, self.kills))


class UncorrectableDataError(FaultError):
    """A detected-uncorrectable upset hit a dirty line.

    A clean line can be silently refetched from the level below; a
    dirty line holds the only copy of its data, so the machine must
    signal data loss.  The sweep runner isolates and records these
    instead of aborting a whole experiment grid.
    """

    def __init__(self, level: str, address: int, access_index: int) -> None:
        super().__init__(
            f"uncorrectable upset on dirty line {address:#x} in {level} "
            f"(access #{access_index})"
        )
        self.level = level
        self.address = address
        self.access_index = access_index
        #: ``(telemetry client, events)`` the interrupted outcome step
        #: had deferred to its timing step, or None.
        self.deferred = None

    def emit_deferred(self) -> None:
        """Offer the interrupted access's deferred telemetry events
        (they carry no cycle), once."""
        if self.deferred is not None:
            telemetry, events = self.deferred
            self.deferred = None
            telemetry.emit_deferred(events, None)

    def __reduce__(self):
        # Default exception pickling replays __init__ with ``args``
        # (the formatted message), which doesn't match this signature;
        # parallel workers re-raise these across process boundaries,
        # so rebuild from the original fields instead.
        return (type(self), (self.level, self.address, self.access_index))
