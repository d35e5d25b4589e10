"""Golden digests for D-NUCA runs.

Both exact engines drive the same :class:`repro.nuca.cache.DNUCACache`,
so engine parity cannot see a change to the D-NUCA model itself.  These
digests pin the model's results instead: each is the sha256 of the
canonical JSON of ``run_result_to_dict`` for one cell, and the
telemetry-armed cell also pins its report and its event-trace JSONL.
Any change to latency, energy, counters, victim choice, or event order
changes a digest.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.nuca.config import DNUCAConfig, SearchPolicy
from repro.sim.config import EXACT_ENGINES, dnuca_config
from repro.sim.driver import run_benchmark
from repro.sim.results import run_result_to_dict
from repro.telemetry import TelemetryConfig
from repro.telemetry.report import merge_payloads, render_report
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import generate_trace

SEED = 501
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


POLICY_DIGESTS = {
    (SearchPolicy.SS_PERFORMANCE, "mcf"): (
        "e8932c88a77dc98375420b4f601658df9a8a40888f9eafbd725ec9d6ae0a28da"
    ),
    (SearchPolicy.SS_PERFORMANCE, "gcc"): (
        "bcbe65d47d3928ccb9b9ca63ac5458090e93f92e629777eab24f834fe1d73cf1"
    ),
    (SearchPolicy.SS_ENERGY, "mcf"): (
        "a4ab7e1b9c807aaa42a8b338f07224372501e6b143933416a8cd0ac0e53f7847"
    ),
    (SearchPolicy.SS_ENERGY, "gcc"): (
        "416d6d89d6291bc3b729a86c2caf5ea2a19a40037159f630c39fa972d86eb17c"
    ),
    (SearchPolicy.INCREMENTAL, "mcf"): (
        "3357ee4b17943fb25b31fc24dab7853e039b0d39ea51eca0de0ceb8ae1beda8a"
    ),
    (SearchPolicy.INCREMENTAL, "gcc"): (
        "02ed0260883c418eceeb3ea632735e3929c556680d7af3ee53e8e7be09326a2d"
    ),
}

HEAD_NO_PROMOTE_DIGEST = (
    "1fc28e851315e06e121d26eaae1537be88c555dfed73f920b74cfa3cf68d7ff0"
)

TELEMETRY_DIGESTS = {
    "payload": "6eeabf2334d9d5c72732b26af6058e2943a44c2ab68a4151f8a44f1d5dc6c56f",
    "report": "085153760bae3c5ffa0614e2d8ded55d03027a350b7bdb092ce417e730e65f85",
    "events": "f37ed71ae33857d1f291b1fc189d405fbeef01c563dc930bc854152ccec921ec",
}


@pytest.mark.parametrize("engine", EXACT_ENGINES)
@pytest.mark.parametrize(
    "policy,bench",
    list(POLICY_DIGESTS),
    ids=[f"{p.value}-{b}" for p, b in POLICY_DIGESTS],
)
def test_policy_cell_digest(policy, bench, engine):
    config = replace(dnuca_config(policy=policy), engine=engine)
    payload = _run(config, bench)
    assert _sha(_canonical(payload)) == POLICY_DIGESTS[(policy, bench)]


def test_head_insertion_without_promotion_digest():
    config = dnuca_config(name="dnuca-head-static")
    config = replace(
        config, dnuca=DNUCAConfig(tail_insertion=False, promote_on_hit=False)
    )
    payload = _run(config, "mcf")
    assert _sha(_canonical(payload)) == HEAD_NO_PROMOTE_DIGEST


def test_telemetry_armed_digests(tmp_path):
    telemetry = TelemetryConfig(
        events=True, trace_dir=str(tmp_path), trace_limit=None
    )
    payload = _run(dnuca_config(), "mcf", telemetry)
    telem = payload["telemetry"]
    with open(telem["trace"].pop("path"), "rb") as handle:
        events = handle.read()
    report = render_report(merge_payloads([("cell", telem)]))
    assert b'"kind": "promotion"' in events
    assert {
        "payload": _sha(_canonical(payload)),
        "report": _sha(report),
        "events": _sha(events),
    } == TELEMETRY_DIGESTS
