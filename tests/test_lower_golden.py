"""Golden digests for the lower levels D-NUCA and NuRAPID goldens leave out.

Both exact engines drive the same lower-level models, so engine parity
cannot see a change to any of them.  These digests pin the base L2+L3
(two ``SetAssociativeCache`` levels), the
set-associative-placement cache, S-NUCA, and single-core NuRAPID and
D-NUCA behind ``ContendedLLC`` bank queues.  Each cell digest is the
sha256 of the canonical JSON of ``run_result_to_dict``; each
telemetry-armed cell also pins its report and its event-trace JSONL;
the fault cell pins the state a mid-run uncorrectable error in the
base L2 leaves behind.  Any change to latency, queueing, energy,
counters, victim choice or event order changes a digest.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.cmp.config import CmpConfig, ContentionConfig
from repro.common.errors import UncorrectableDataError
from repro.cpu.core import CoreModel
from repro.faults.models import FaultPlan
from repro.sim.config import (
    ENGINES,
    base_config,
    dnuca_config,
    nurapid_config,
    sa_nuca_config,
    snuca_config,
)
from repro.sim.driver import _replay, make_system, run_benchmark
from repro.sim.results import run_result_to_dict
from repro.telemetry import TelemetryConfig
from repro.telemetry.report import merge_payloads, render_report
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import generate_trace

SEED = 701
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


def _contended(config, n_banks=8):
    """``config`` single-core behind ``n_banks`` contended LLC banks."""
    return replace(
        config,
        name=f"{config.name}-contended{n_banks}",
        cmp=CmpConfig(cores=1, contention=ContentionConfig(n_banks=n_banks)),
    )


CELLS = {
    "base": base_config,
    "sa-nuca": sa_nuca_config,
    "s-nuca": snuca_config,
    "nurapid-contended": lambda: _contended(nurapid_config()),
    "dnuca-contended": lambda: _contended(dnuca_config()),
    "nurapid-contended-2": lambda: _contended(nurapid_config(), n_banks=2),
}

CELL_DIGESTS = {
    ("base", "mcf"): (
        "ad38d9726a12c33e0b3ed955a97c6f7e678c7b17a99b1aca84e287e35c35428b"
    ),
    ("base", "gcc"): (
        "688d22e37de48c6deb68ae0dc057102118aa8fd26a73c9d119cc8bd172511376"
    ),
    ("sa-nuca", "mcf"): (
        "62b8c6599f53d14675dd857ffc3373051cf76cb1ac04e008c6d049be07dc7592"
    ),
    ("sa-nuca", "gcc"): (
        "3563ed6623c0153e1d8f919d683fd2da27b949fd91f7dca3fb585a7fe2bc7838"
    ),
    ("s-nuca", "mcf"): (
        "70c1f6a549553de99995d9f15126557a723f009968138c5316bd4b4344eba852"
    ),
    ("s-nuca", "gcc"): (
        "1706ecfa32548eb9c2a357cf105b653ec286d6970f7407341a2d0f707e36c148"
    ),
    ("nurapid-contended", "mcf"): (
        "339305ccb875d9c820a0950a5cb64e13dbdeb76cc34b58c7d0569a7c374c13ac"
    ),
    ("dnuca-contended", "mcf"): (
        "28f43ea269f0f2425505d34f07198ad6676144057edb9803184da435b93cefb7"
    ),
    ("nurapid-contended-2", "mcf"): (
        "1c70516d685d8bbcc37e7f1083b4dc9564879a19c4d851f57964853db4460210"
    ),
}

TELEMETRY_DIGESTS = {
    "base": {
        "payload": "d9057238ac27689140ff74ec09a8908db26e72dff80a5ab712a24490db6ef342",
        "report": "0a0a8192a7e28a481629f51ff29269e731570981c7c1346db72387fad1035e36",
        "events": "0a484c961e06c91046ef589c0a2f9e59279fafdff3e8409b3c9e8c5d219505d7",
    },
    "sa-nuca": {
        "payload": "00bf7ab48ba046ff120add065c3bcef2734ac907a248624843e92976f5ce6a96",
        "report": "056cb21e99d8a61fd776dc0fccae575c50cc2abe4f80cd7503d91c4db218527a",
        "events": "57d612541ee3a24b595e214758d303f87330db684a0862096633e1e90a86b48f",
    },
    "s-nuca": {
        "payload": "059b6c8c9966dc2522f10d064a67ad4376a0927213fa84e9b01c5f50c6b40332",
        "report": "c84b14b6f75a824ee94bccd93828ba53df706bcf4e70d3448884dd38741c22bd",
        "events": "ca298066b5f312be758aaada74745e55b4505e5d4738b5142252326261ea9f5d",
    },
    "nurapid-contended": {
        "payload": "a1066018330071f01e185146f52bcd847b4a1ac39b6bee86603cc1d28f7034cc",
        "report": "5e17918afb540d8ed33a5b4afe5d25b6d21ba253f72b30ca94e612cc799f3fa1",
        "events": "ba3edb1db9f06c9419f13cbd1e2028ab74418101a175dac90687e57a48bd6446",
    },
    "dnuca-contended": {
        "payload": "f9081d2705cc9b1c601c0476670a7c000eb2507da3706959c40e6fea6b9f4602",
        "report": "5805ad1f9a4c474d6006bce1e9a33ac20c3ae86bfc97559eb4dcd007fd4c6cc1",
        "events": "7a930327f5ebf0af0d161f03578db1138cc4583fc5ca2b24d13331a52a502811",
    },
}

#: Transient multi-bit upsets in the base L2: clean lines refetch until
#: one strikes a dirty line, a DUE.
FAULT_PLAN = FaultPlan(
    transient_per_access=3e-3,
    max_upset_bits=4,
    words_per_block=2,
    interleave_subarrays=1,
    seed=29,
)

FAULT_DIGEST = (
    "ef8cff6eae80a402fa878da99f6a46c8936e45ab4590463899a2db7c04ad7ade"
)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "cell,bench", list(CELL_DIGESTS), ids=[f"{c}-{b}" for c, b in CELL_DIGESTS]
)
def test_cell_digest(cell, bench, engine):
    config = replace(CELLS[cell](), engine=engine)
    payload = _run(config, bench)
    assert _sha(_canonical(payload)) == CELL_DIGESTS[(cell, bench)]


def _fault_state(engine):
    """Everything a mid-run DUE in the base L2 leaves behind."""
    config = replace(base_config(faults=FAULT_PLAN), engine=engine)
    profile = get_benchmark("mcf")
    core = CoreModel(
        params=config.core,
        core_ipc=profile.core_ipc,
        exposure=profile.exposure,
        branch_fraction=profile.branch_fraction,
        mispredict_rate=profile.mispredict_rate,
    )
    system = make_system(config)
    with pytest.raises(UncorrectableDataError) as info:
        _replay([system], [core], _trace("mcf"), engine=engine)
    l2, l3 = system.lower
    return _canonical(
        {
            "error": str(info.value),
            "l2": [l2.hits, l2.misses, l2.writebacks, l2.fault_refetches],
            "l3": [l3.hits, l3.misses, l3.writebacks],
            "fault_stats": l2.fault_injector.stats.as_dict(),
            "l2_tags": [l2._tags, list(l2._dirty), l2._stamps, l2._clock],
            "l1": [system.l1d.hits, system.l1d.misses, system.l1d._clock],
            "hierarchy": system.hierarchy.stats.as_dict(),
            "memory": [system.memory.reads, system.memory.writes],
            "core": [core.cycle, core.instructions, core.memory_accesses],
        }
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_fault_cell_digest(engine):
    state = _fault_state(engine)
    assert json.loads(state)["fault_stats"]["clean_refetches"] > 0
    assert _sha(state) == FAULT_DIGEST


@pytest.mark.parametrize("cell", list(TELEMETRY_DIGESTS))
def test_telemetry_armed_digests(cell, tmp_path):
    telemetry = TelemetryConfig(
        events=True, trace_dir=str(tmp_path), trace_limit=None
    )
    payload = _run(CELLS[cell](), "mcf", telemetry)
    telem = payload["telemetry"]
    with open(telem["trace"].pop("path"), "rb") as handle:
        events = handle.read()
    report = render_report(merge_payloads([("cell", telem)]))
    assert b'"kind": "placement"' in events
    assert {
        "payload": _sha(_canonical(payload)),
        "report": _sha(report),
        "events": _sha(events),
    } == TELEMETRY_DIGESTS[cell]
