"""Golden digests for NuRAPID runs.

Both exact engines drive the same :class:`repro.nurapid.cache.NuRAPIDCache`,
so engine parity cannot see a change to the NuRAPID model itself.  These
digests pin the model's results instead: each is the sha256 of the
canonical JSON of ``run_result_to_dict`` for one cell, the fault cell
pins the machine state a mid-run uncorrectable error leaves behind, and
the telemetry-armed cell also pins its report and its event-trace JSONL.
Any change to latency, energy, counters, frame choice, victim choice,
or event order changes a digest.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.cmp.config import CmpConfig, CompressionConfig
from repro.common.errors import UncorrectableDataError
from repro.cpu.core import CoreModel
from repro.faults.models import FaultPlan, HardFaultEvent
from repro.nurapid.config import DistanceReplacementKind, PromotionPolicy
from repro.sim.config import EXACT_ENGINES, nurapid_config
from repro.sim.driver import _replay, make_system, run_benchmark
from repro.sim.results import run_result_to_dict
from repro.telemetry import TelemetryConfig
from repro.telemetry.report import merge_payloads, render_report
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import generate_trace

SEED = 601
WARMUP = 0.4
REFS = {"mcf": 20_000, "gcc": 30_000}

_TRACES = {}


def _trace(benchmark):
    if benchmark not in _TRACES:
        _TRACES[benchmark] = generate_trace(
            get_benchmark(benchmark), REFS[benchmark], seed=SEED
        )
    return _TRACES[benchmark]


def _run(config, benchmark, telemetry=None):
    result = run_benchmark(
        config,
        benchmark,
        n_references=REFS[benchmark],
        seed=SEED,
        trace=_trace(benchmark),
        warmup_fraction=WARMUP,
        telemetry=telemetry,
    )
    return run_result_to_dict(result)


def _sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


KB = 1024


def _small(config):
    """``config`` at 256 KB: a 20k-reference trace overflows d-group 0
    many times, so demotion chains, distance victims and promotion
    swaps all run in the measured slice."""
    return replace(
        config,
        name=f"{config.name}-256k",
        nurapid=replace(config.nurapid, capacity_bytes=256 * KB),
    )


def _compressed(config):
    return replace(
        config, cmp=CmpConfig(cores=1, compression=CompressionConfig())
    )


LRU = DistanceReplacementKind.LRU
APPROX_LRU = DistanceReplacementKind.APPROX_LRU

CELLS = {
    "full": lambda: nurapid_config(),
    "full-compressed": lambda: _compressed(nurapid_config()),
    "4dg": lambda: _small(nurapid_config()),
    "8dg": lambda: _small(nurapid_config(n_dgroups=8)),
    "lru": lambda: _small(nurapid_config(distance_replacement=LRU)),
    "approx-lru": lambda: _small(nurapid_config(distance_replacement=APPROX_LRU)),
    "8dg-lru": lambda: _small(nurapid_config(n_dgroups=8, distance_replacement=LRU)),
    "8dg-approx-lru": lambda: _small(
        nurapid_config(n_dgroups=8, distance_replacement=APPROX_LRU)
    ),
    "demotion-only": lambda: _small(
        nurapid_config(promotion=PromotionPolicy.DEMOTION_ONLY)
    ),
    "fastest": lambda: _small(nurapid_config(promotion=PromotionPolicy.FASTEST)),
    "restricted": lambda: _small(nurapid_config(restricted_frames=64)),
    "ideal-uniform": lambda: _small(nurapid_config(ideal_uniform=True)),
    "hysteresis-2": lambda: _small(nurapid_config(promotion_hysteresis=2)),
    "compressed": lambda: _compressed(_small(nurapid_config())),
}

CELL_DIGESTS = {
    ("full", "mcf"): (
        "2732d31e9f8439664dda360e2fa804ca905c31d1c176fa0858efda9b4060b331"
    ),
    ("full", "gcc"): (
        "899a2712c716b8f42544a6aff53c14616a00bf2c67804c282dd6c44058a4c57d"
    ),
    ("full-compressed", "mcf"): (
        "d58c4b7185d61b0483da20727aa55535836e9bf67ea946622e26c2c232b1f296"
    ),
    ("4dg", "mcf"): (
        "fd062abda4c6720227979536ff05d266cc7797c8e67b3b59dc1bfe89daa69177"
    ),
    ("4dg", "gcc"): (
        "9c955c25cfe8012965365bbb13dabc3df76cedca34535446cbea381dd787f4cd"
    ),
    ("8dg", "mcf"): (
        "724d3baff94a3052d8b43357745eb8ced528aa5c12a90d70dd0f5937f4f6948d"
    ),
    ("lru", "mcf"): (
        "ac0cc97000329b77ff814feaa793b91c391886caccb24a66bd753de104ee3bac"
    ),
    ("approx-lru", "mcf"): (
        "918478a62ba23278514deca5d4c2922db883c1fa3cd6f2efd135a859be88fc3e"
    ),
    ("8dg-lru", "mcf"): (
        "6cd3bdfafe66257e428c0ae3c76864643e56d2d9609f2da34bb4d479d42992ab"
    ),
    ("8dg-approx-lru", "mcf"): (
        "3859cb55a23b59988e1679c67c32adad92b6051d42f7e5f63aba7e1597435b8e"
    ),
    ("demotion-only", "mcf"): (
        "f331c36173ae76f8181c6008400aba075565891fc228d8870c256bfe1b92875c"
    ),
    ("fastest", "mcf"): (
        "8bf2e9d7b13087a11b33641bec79d538a0ba3ea197cc804a85b3df9fbb229a64"
    ),
    ("restricted", "mcf"): (
        "8e38440762afde272d90ee1ca32c51e9413c4111124340c22098a5e15618b555"
    ),
    ("ideal-uniform", "mcf"): (
        "0d53a8eff3b8bf68fa8f7d37d256fa32f1e4b6887a704367497fd6fda894997c"
    ),
    ("hysteresis-2", "mcf"): (
        "4ecfdd242b05eb47a922576a5ff908d3d666b6d93fcdddf7ee2e3bc2b9cc228d"
    ),
    ("compressed", "mcf"): (
        "81862a4851556501553b9230a9607b6b7ef250f042fc3a433d06543f9373b7ff"
    ),
    ("compressed", "gcc"): (
        "0a487fc931951a33685c9bcb408ab7a568e8707edff32f6976786285f3863d3d"
    ),
}

#: Spares absorb the first dead subarray of d-groups 0 and 2; the second
#: one in each retires its frames, so later fills must evict for space.
#: Multi-bit upsets then refetch a clean line, until one strikes a dirty
#: line: a DUE.
FAULT_PLAN = FaultPlan(
    transient_per_access=2e-3,
    max_upset_bits=4,
    words_per_block=2,
    interleave_subarrays=1,
    hard_faults=(
        HardFaultEvent(at_access=20, dgroup=0, subarray=0),
        HardFaultEvent(at_access=40, dgroup=0, subarray=1),
        HardFaultEvent(at_access=60, dgroup=2, subarray=3),
        HardFaultEvent(at_access=80, dgroup=2, subarray=4),
    ),
    data_subarrays_per_dgroup=8,
    spare_subarrays_per_dgroup=1,
    seed=23,
)

FAULT_DIGEST = (
    "5d5e3d26f44bebe67c3cb2af485f9505e2630b35f6bd7bf37284147ea1199a28"
)

TELEMETRY_DIGESTS = {
    "payload": "14346975c3ba58a36dd0c88425e9f85121d9f94c4f1f57e3d589790778ac70ec",
    "report": "a45024351442660542ec68f21b823148f1be7045ed80ad1e2e42501b8968ae0f",
    "events": "ad245f8c021e30f26b21e7bcbd1265d6648cca7e0bb3623d1e76f1f52e9c6c37",
}


@pytest.mark.parametrize("engine", EXACT_ENGINES)
@pytest.mark.parametrize(
    "cell,bench", list(CELL_DIGESTS), ids=[f"{c}-{b}" for c, b in CELL_DIGESTS]
)
def test_cell_digest(cell, bench, engine):
    config = replace(CELLS[cell](), engine=engine)
    payload = _run(config, bench)
    assert _sha(_canonical(payload)) == CELL_DIGESTS[(cell, bench)]


def _fault_state(engine):
    """Everything a mid-run DUE leaves behind, as canonical JSON."""
    config = replace(_small(nurapid_config(faults=FAULT_PLAN)), engine=engine)
    profile = get_benchmark("mcf")
    core = CoreModel(
        params=config.core,
        core_ipc=profile.core_ipc,
        exposure=profile.exposure,
        branch_fraction=profile.branch_fraction,
        mispredict_rate=profile.mispredict_rate,
    )
    system = make_system(config)
    trace = _trace("mcf")
    with pytest.raises(UncorrectableDataError) as info:
        _replay(system, core, trace, engine=engine)
    l2 = system.l2
    blocks = sorted({a & ~(l2.block_bytes - 1) for a in trace.addresses.tolist()})
    entries = []
    for baddr in blocks:
        entry = l2.lookup(baddr)
        if entry is not None:
            entries.append(
                [baddr, entry.dgroup, entry.frame, entry.dirty, entry.pending_hits]
            )
    return _canonical(
        {
            "error": str(info.value),
            "stats": l2.stats.as_dict(),
            "fault_stats": l2.fault_injector.stats.as_dict(),
            "energy": {op: l2.energy.count(op) for op in l2.energy.operations()},
            "dgroup_hits": sorted(l2.dgroup_hits.counts.items()),
            "occupancy": l2.dgroup_occupancy(),
            "retired": l2.retired_frames(),
            "resident": l2.resident_blocks(),
            "port": [l2.port.busy_until, l2.port.total_busy, l2.port.grants],
            "core": [core.cycle, core.instructions, core.memory_accesses],
            "entries": entries,
        }
    )


@pytest.mark.parametrize("engine", EXACT_ENGINES)
def test_fault_cell_digest(engine):
    state = _fault_state(engine)
    stats = json.loads(state)["stats"]
    assert stats["fault_frames_retired"] > 0
    assert stats["fault_capacity_evictions"] > 0
    assert stats["fault_refetches"] > 0
    assert _sha(state) == FAULT_DIGEST


def test_telemetry_armed_digests(tmp_path):
    telemetry = TelemetryConfig(
        events=True, trace_dir=str(tmp_path), trace_limit=None
    )
    payload = _run(_small(nurapid_config()), "mcf", telemetry)
    telem = payload["telemetry"]
    with open(telem["trace"].pop("path"), "rb") as handle:
        events = handle.read()
    report = render_report(merge_payloads([("cell", telem)]))
    for kind in ("promotion", "demotion", "eviction", "placement"):
        assert f'"kind": "{kind}"'.encode() in events
    assert {
        "payload": _sha(_canonical(payload)),
        "report": _sha(report),
        "events": _sha(events),
    } == TELEMETRY_DIGESTS
