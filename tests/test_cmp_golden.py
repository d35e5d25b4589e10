"""Golden digests for the shared-LLC CMP scenarios.

Each CMP cell replays per-core L1s over one shared lower level, and
both exact engines take it: ``legacy`` walks every reference, the
vectorized kernel solves each core's L1 on its own sub-stream and
folds the merged misses per core.  These digests pin the cells of
``figure_cmp_throughput`` and ``figure_cmp_compression`` at smoke
scale, a 2-core S-NUCA cell, a 2-core low-load cell (gcc+mesa, whose
long runs of L1 hits the kernel folds through numpy) and a
telemetry-armed 2-core cell, so neither engine can drift from the
other or from the model.  Each cell digest is the sha256 of the canonical JSON of ``run_result_to_dict``;
the telemetry cell also pins its report and its event-trace JSONL.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.cmp.scenarios import cmp_nurapid_config, cmp_snuca_config
from repro.sim.config import ENGINES
from repro.sim.driver import run_benchmark
from repro.sim.results import run_result_to_dict
from repro.telemetry import TelemetryConfig
from repro.telemetry.report import merge_payloads, render_report

#: The experiments' smoke scale.
SMOKE_REFS = 60_000
SMOKE_WARMUP = 0.3
SMOKE_SEED = 1

#: cell id -> (config factory, benchmark spec).
CELLS = {
    "throughput-1": (lambda: cmp_nurapid_config(cores=1), "twolf"),
    "throughput-2": (lambda: cmp_nurapid_config(cores=2), "twolf"),
    "throughput-4": (lambda: cmp_nurapid_config(cores=4), "twolf"),
    "throughput-mix": (
        lambda: cmp_nurapid_config(cores=2, name="nurapid-cmp2-b8-mix"),
        "twolf+mcf",
    ),
    "compression-off": (
        lambda: cmp_nurapid_config(cores=2, capacity_kb=1024),
        "twolf+mcf",
    ),
    "compression-on": (
        lambda: cmp_nurapid_config(cores=2, compression=True, capacity_kb=1024),
        "twolf+mcf",
    ),
    "snuca-2": (lambda: cmp_snuca_config(cores=2), "gcc+mcf"),
    # Two low-load cores: long runs of L1 hits between misses, which
    # the kernel folds through numpy per core and in finish().
    "low-load-2": (lambda: cmp_nurapid_config(cores=2), "gcc+mesa"),
}

CELL_DIGESTS = {
    "throughput-1": (
        "ec13bee69bb908299a28a3b348acb4d39ed249d6a3415f477e98ebb5376f0d69"
    ),
    "throughput-2": (
        "cf5b7b6a68af4916ab5b3ccfea132b91dd00f15e6085c922ef1aebba0fe7979d"
    ),
    "throughput-4": (
        "ccc917c887ecc9a5a59ef8bba7620e3917bea5f69e211855ae0d08f73467e2a6"
    ),
    "throughput-mix": (
        "771bc5fbe4511a78827800d20471160e10e9b06b9798886dfa323e6a4ffb9c85"
    ),
    "compression-off": (
        "1208b92e4c425eacdd2dd25ad04cd73501c2113f2f67eebaa1523c2b2d85adf4"
    ),
    "compression-on": (
        "822b4a8239e95df31db2bd9356c73e292400a5ce663ed89a38e15e2a9a7668dc"
    ),
    "snuca-2": (
        "af1c17b9f44365fb2a2eb21b3f8b4f9bfd24b58f75cdeec5f5bff0147af401ba"
    ),
    "low-load-2": (
        "845a1b5b576dcab1ee7574962b03ee8fe8ee19fd8ca0f82c6cf0a79b89f6cfea"
    ),
}

#: The telemetry-armed cell: a smaller 2-core mixed run.
TELEMETRY_REFS = 20_000
TELEMETRY_DIGESTS = {
    "payload": "86e28f424ee671e92367b54e5c9cd8ca0f4ecdae8a8f923251bec8417ded8214",
    "report": "64408703ef736154eeeb33d513f4eb93f3c81bef9698c71d1b9d5cc04be319e8",
    "events": "14a80d2ab97bef51af6fd56fd1917f4b15233d16693a9f78a0091efbb771ab33",
}


def _payload(config, benchmark, n_references, telemetry=None):
    result = run_benchmark(
        config,
        benchmark,
        n_references=n_references,
        seed=SMOKE_SEED,
        warmup_fraction=SMOKE_WARMUP,
        telemetry=telemetry,
    )
    return run_result_to_dict(result)


def _sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cell_digest(cell, engine):
    build, benchmark = CELLS[cell]
    config = replace(build(), engine=engine)
    return _sha(_canonical(_payload(config, benchmark, SMOKE_REFS)))


def telemetry_digests(engine, trace_dir):
    config = replace(cmp_nurapid_config(cores=2), engine=engine)
    telemetry = TelemetryConfig(events=True, trace_dir=trace_dir, trace_limit=None)
    payload = _payload(config, "twolf+mcf", TELEMETRY_REFS, telemetry)
    telem = payload["telemetry"]
    with open(telem["trace"].pop("path"), "rb") as handle:
        events = handle.read()
    report = render_report(merge_payloads([("cell", telem)]))
    return {
        "payload": _sha(_canonical(payload)),
        "report": _sha(report),
        "events": _sha(events),
    }


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("cell", list(CELLS))
def test_cell_digest(cell, engine):
    assert cell_digest(cell, engine) == CELL_DIGESTS[cell]


@pytest.mark.parametrize("engine", ENGINES)
def test_telemetry_armed_digests(engine, tmp_path):
    assert telemetry_digests(engine, str(tmp_path)) == TELEMETRY_DIGESTS
