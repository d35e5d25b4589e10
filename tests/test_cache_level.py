"""The one ``access``/``fill`` composition every shipped lower level shares.

Each level below the L1s is a :class:`~repro.caches.level.CacheLevel`:
its ``access`` and ``fill`` check the arrival time, run the outcome
step, then the timing step.  These tests pin that contract on every
model the configs build, including the wrapped and derived ones.
"""

import pytest

from repro.caches.level import CacheLevel
from repro.cmp.scenarios import cmp_nurapid_config
from repro.common.errors import SimulationError, UncorrectableDataError
from repro.faults.models import FaultPlan, HardFaultEvent
from repro.sim.config import (
    base_config,
    build_lower_level,
    dnuca_config,
    nurapid_config,
    sa_nuca_config,
    snuca_config,
)
from repro.telemetry import Telemetry, TelemetryConfig

LEVELS = {
    "base-l2": lambda: build_lower_level(base_config())[0],
    "base-l3": lambda: build_lower_level(base_config())[1],
    "sa-nuca": lambda: build_lower_level(sa_nuca_config())[0],
    "s-nuca": lambda: build_lower_level(snuca_config())[0],
    "d-nuca": lambda: build_lower_level(dnuca_config())[0],
    "nurapid": lambda: build_lower_level(nurapid_config())[0],
    "compressed-nurapid": lambda: build_lower_level(
        cmp_nurapid_config(contention=False, compression=True)
    )[0],
    "contended-nurapid": lambda: build_lower_level(cmp_nurapid_config())[0],
}


@pytest.mark.parametrize("kind", sorted(LEVELS))
def test_access_and_fill_are_the_shared_composition(kind):
    level = LEVELS[kind]()
    assert isinstance(level, CacheLevel)
    assert type(level).access is CacheLevel.access
    assert type(level).fill is CacheLevel.fill
    assert level.fill(0x4000, now=5.0) == 0
    assert level.access(0x4000, now=10.0).hit
    assert level.access(0x4000, now=10.0).level == level.name


@pytest.mark.parametrize("kind", sorted(LEVELS))
def test_negative_now_rejected_before_any_change(kind):
    level = LEVELS[kind]()
    with pytest.raises(SimulationError, match="negative timestamp"):
        level.fill(0x4000, now=-1.0)
    assert not level.contains(0x4000)
    with pytest.raises(SimulationError, match="negative timestamp"):
        level.access(0x4000, now=-1.0)
    level.fill(0x4000, now=0.0)
    assert level.contains(0x4000)


def _tracing_client(level):
    session = Telemetry(TelemetryConfig(events=True), "due")
    level.telemetry = session.cache_client(level.name)
    return session.tracer


def _strike(level, address):
    """Make the next access to ``address`` a dirty-line DUE."""

    def on_access(hit, dirty, address=0):
        assert hit and dirty
        raise UncorrectableDataError(level.name, address, 0)

    level.fault_injector.on_access = on_access


def test_due_on_base_l2_defers_nothing():
    level = build_lower_level(base_config(faults=FaultPlan(seed=3)))[0]
    level.fill(0x4000, dirty=True)
    tracer = _tracing_client(level)
    _strike(level, 0x4000)
    with pytest.raises(UncorrectableDataError) as info:
        level.access(0x4000, now=10.0)
    assert info.value.deferred is None
    assert tracer.events() == []


def test_due_on_nurapid_emits_deferred_events_once():
    # The hard fault falls due on the second access; with no spares it
    # retires a slow subarray, an event the outcome step defers.
    plan = FaultPlan(
        hard_faults=(HardFaultEvent(at_access=1, dgroup=3, subarray=0),),
        spare_subarrays_per_dgroup=0,
        seed=3,
    )
    level = build_lower_level(nurapid_config(faults=plan))[0]
    level.fill(0x4000, dirty=True)
    assert level.access(0x4000, now=10.0).hit
    tracer = _tracing_client(level)
    _strike(level, 0x4000)
    with pytest.raises(UncorrectableDataError) as info:
        level.access(0x4000, now=20.0)
    retired = [e for e in tracer.events() if e["kind"] == "fault_retire"]
    assert [(e["dgroup"], e["subarray"]) for e in retired] == [(3, 0)]
    assert "cycle" not in retired[0]
    assert len(tracer.events()) == 1
    info.value.emit_deferred()
    assert len(tracer.events()) == 1
