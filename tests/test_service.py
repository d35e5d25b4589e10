"""Simulation-as-a-service: store, scheduler, protocol, and the server.

The service's contract is byte-identity: a grid run through the server
— cold, warm from the store, coalesced across clients, or resumed
after a server death — must produce exactly the JSON bytes a direct
``run_suite`` produces.  Every end-to-end test here compares canonical
JSON, not tolerances.  Grids are tiny (a few thousand references) so
booting a real HTTP server with real worker processes stays within
unit-test time.
"""

import dataclasses
import json
import threading

import pytest

from repro.common.errors import ConfigurationError
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    GridRequest,
    build_config,
    canonical_json,
    config_spec,
)
from repro.service.scheduler import FairShareScheduler, QuotaExceeded
from repro.service.server import ServerConfig, serve_in_thread
from repro.service.store import ResultStore
from repro.sim.config import nurapid_config, snuca_config
from repro.sim.driver import run_suite
from repro.sim.parallel import CellTask, cell_fingerprint, memoizable_payload
from repro.sim.results import run_result_to_dict
from repro.sim.sweep import Sweep, SweepAxis
from repro.telemetry import TelemetryConfig
from repro.telemetry.registry import StatRegistry
from repro.telemetry.report import merge_payloads, render_report

REFS = 4_000
WARMUP = 0.4
BENCHMARKS = ["bzip2", "twolf"]

KEY_A = "a" * 64
KEY_B = "b" * 64
PAYLOAD = {"outcome": {"status": "ok", "attempts": 1}, "result": {"x": 1.5}}


def vectorized(config):
    # Pin the engine so fingerprints don't depend on $REPRO_ENGINE.
    return dataclasses.replace(config, engine="vectorized")


def direct_suites(configs, telemetry=None):
    return {
        c.name: run_suite(
            c, BENCHMARKS, n_references=REFS, seed=0,
            warmup_fraction=WARMUP, telemetry=telemetry,
        )
        for c in configs
    }


class TestResultStore:
    def test_roundtrip_and_counters(self, tmp_path):
        registry = StatRegistry()
        store = ResultStore(str(tmp_path), registry=registry)
        assert store.get(KEY_A) is None
        store.put(KEY_A, PAYLOAD)
        assert store.get(KEY_A) == PAYLOAD
        assert KEY_A in store and KEY_B not in store
        counters = registry.counters("result_store.")
        assert counters["result_store.misses"] == 1
        assert counters["result_store.writes"] == 1
        assert counters["result_store.hits"] == 1

    def test_put_is_idempotent(self, tmp_path):
        registry = StatRegistry()
        store = ResultStore(str(tmp_path), registry=registry)
        path = store.put(KEY_A, PAYLOAD)
        stamp = open(path, "rb").read()
        store.put(KEY_A, {"outcome": {"status": "ok", "attempts": 1},
                          "result": {"x": 999}})
        # Existing verified entries are never rewritten: payloads are
        # deterministic functions of the key.
        assert open(path, "rb").read() == stamp
        assert registry.counters("result_store.")["result_store.writes"] == 1

    def test_corruption_recovered_with_counter(self, tmp_path):
        registry = StatRegistry()
        store = ResultStore(str(tmp_path), registry=registry)
        path = store.put(KEY_A, PAYLOAD)
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] ^= 0xFF  # bit-flip under the sha256 sidecar
        with open(path, "wb") as handle:
            handle.write(raw)
        assert store.get(KEY_A) is None  # miss, not garbage
        counters = registry.counters("result_store.")
        assert counters["result_store.corrupt_recovered"] == 1
        assert KEY_A not in store  # entry discarded for recompute

    def test_eviction_keeps_newest(self, tmp_path):
        registry = StatRegistry()
        store = ResultStore(str(tmp_path), max_entries=2, registry=registry)
        keys = [ch * 64 for ch in "abc"]
        for i, key in enumerate(keys):
            store.put(key, PAYLOAD)
        assert store.entries() == 2
        assert keys[2] in store  # the just-written entry always survives
        assert registry.counters("result_store.")["result_store.evicted"] == 1

    def test_bad_keys_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with pytest.raises(ConfigurationError):
            store.get("../../etc/passwd")
        with pytest.raises(ConfigurationError):
            store.put("short", PAYLOAD)


class TestFairShareScheduler:
    def drain(self, scheduler):
        import asyncio

        async def pull():
            out = []
            scheduler.close()
            while True:
                got = await scheduler.get()
                if got is None:
                    return out
                out.append(got)

        return asyncio.run(pull())

    def test_quota_enforced(self):
        scheduler = FairShareScheduler(quota=2)
        scheduler.put("a", 1)
        scheduler.put("a", 2)
        assert scheduler.room("a") == 0
        with pytest.raises(QuotaExceeded):
            scheduler.put("a", 3)
        scheduler.put("b", 1)  # other clients unaffected

    def test_drr_interleaves_clients(self):
        scheduler = FairShareScheduler(quota=16, quantum=10.0)
        for i in range(3):
            scheduler.put("a", f"a{i}", cost=10.0)
            scheduler.put("b", f"b{i}", cost=10.0)
        order = [client for client, _ in self.drain(scheduler)]
        # Equal costs, equal quantum: strict alternation.
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_drr_expensive_client_skips_turns(self):
        scheduler = FairShareScheduler(quota=16, quantum=10.0)
        scheduler.put("big", "B", cost=30.0)
        for i in range(3):
            scheduler.put("small", f"s{i}", cost=10.0)
        order = [client for client, _ in self.drain(scheduler)]
        # The 30-cost cell needs three quantum refills; the cheap
        # client's cells dispatch while it accumulates.
        assert order == ["small", "big", "small", "small"] or order == [
            "small", "small", "big", "small",
        ]
        assert order.count("small") == 3 and order.count("big") == 1

    def test_close_drains_then_none(self):
        scheduler = FairShareScheduler()
        scheduler.put("a", 1)
        items = self.drain(scheduler)
        assert [item for _, item in items] == [1]
        with pytest.raises(ConfigurationError):
            scheduler.put("a", 2)


class TestProtocol:
    def test_config_spec_builds_named_configs(self):
        spec = config_spec("nurapid", n_dgroups=8)
        config = build_config(spec)
        assert config.name.startswith("nurapid-8dg")
        assert build_config(config_spec("s-nuca")).name == "s-nuca"

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            build_config({"kind": "frobnicate"})
        with pytest.raises(ConfigurationError):
            build_config({"kind": "nurapid", "options": {"bogus_knob": 1}})
        with pytest.raises(ConfigurationError):
            build_config({"kind": "nurapid", "engine": "warp-drive"})

    def test_request_payload_roundtrip(self):
        request = GridRequest(
            configs=[config_spec("nurapid")],
            benchmarks=["bzip2"],
            client="alice",
            n_references=REFS,
            engine="vectorized",
            tag="t1",
        )
        again = GridRequest.from_payload(request.to_payload())
        assert again.to_payload() == request.to_payload()

    def test_unknown_fields_rejected(self):
        payload = GridRequest(
            configs=[config_spec("s-nuca")], benchmarks=["bzip2"]
        ).to_payload()
        payload["surprise"] = 1
        with pytest.raises(ConfigurationError):
            GridRequest.from_payload(payload)
        del payload["surprise"]
        # Clients from before these fields went may still send them.
        for name, value in (("estimate", True), ("prewarm", True),
                            ("warm_set_conflict", 1)):
            with pytest.raises(ConfigurationError, match=f"fields: {name}$"):
                GridRequest.from_payload(dict(payload, **{name: value}))

    def test_engine_pinned_at_resolution(self):
        request = GridRequest(
            configs=[config_spec("nurapid", engine="legacy"),
                     config_spec("s-nuca")],
            benchmarks=["bzip2"],
        )
        engines = [c.engine for c in request.resolved_configs("vectorized")]
        # Spec engine wins, then the server default; never None.
        assert engines == ["legacy", "vectorized"]
        request2 = dataclasses.replace(request, engine="vectorized")
        assert [
            c.engine for c in request2.resolved_configs("legacy")
        ] == ["vectorized", "vectorized"]

    def test_cells_in_run_suite_order(self):
        request = GridRequest(
            configs=[config_spec("nurapid"), config_spec("s-nuca")],
            benchmarks=["bzip2", "twolf"],
        )
        cells = [(c.name, b) for c, b in request.cells("vectorized")]
        assert [b for _, b in cells] == ["bzip2", "twolf", "bzip2", "twolf"]


class TestCellFingerprint:
    def probe(self, **overrides):
        base = dict(
            index=0, config=vectorized(nurapid_config()), benchmark="bzip2",
            n_references=REFS, seed=0, warmup_fraction=WARMUP,
        )
        base.update(overrides)
        return CellTask(**base)

    def test_store_key_pinned(self, monkeypatch):
        # Existing result-store entries stay reachable only while the
        # key of a given cell never changes.
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        task = CellTask(
            index=0, config=nurapid_config(), benchmark="twolf",
            n_references=2000, seed=3, warmup_fraction=0.3,
        )
        assert cell_fingerprint(task) == (
            "3fe606cfaa22cf626c25fe5b75ab54c226873c4c7d5b3b6738fbbec00b4e610e"
        )

    def test_execution_knobs_excluded(self):
        # Retry/budget knobs cannot influence a first-attempt success,
        # so they must not fragment the content address.
        a = cell_fingerprint(self.probe())
        b = cell_fingerprint(self.probe(max_retries=3,
                                        isolate_errors=False,
                                        trace_path="/some/where.npy"))
        assert a == b

    def test_semantic_knobs_included(self):
        a = cell_fingerprint(self.probe())
        assert a != cell_fingerprint(self.probe(seed=1))
        assert a != cell_fingerprint(self.probe(n_references=REFS + 1))
        assert a != cell_fingerprint(
            self.probe(config=vectorized(snuca_config()))
        )
        assert a != cell_fingerprint(
            self.probe(telemetry=TelemetryConfig())
        )

    def test_inline_traces_not_addressable(self):
        from repro.workloads.spec2k import get_benchmark
        from repro.workloads.tracegen import generate_trace

        trace = generate_trace(get_benchmark("bzip2"), 100, seed=0)
        assert cell_fingerprint(self.probe(trace=trace)) is None

    def test_memoizable_payload_gate(self):
        ok = {"outcome": {"status": "ok", "attempts": 1}, "result": {}}
        assert memoizable_payload(ok)
        assert not memoizable_payload(
            {"outcome": {"status": "ok", "attempts": 2}, "result": {}}
        )
        assert not memoizable_payload(
            {"outcome": {"status": "failed", "attempts": 1}, "result": None}
        )
        assert not memoizable_payload({"result": {}})


class TestRunSuiteStore:
    def test_hits_are_byte_identical_and_skip_simulation(self, tmp_path):
        registry = StatRegistry()
        store = ResultStore(str(tmp_path), registry=registry)
        config = vectorized(nurapid_config())
        plain = run_suite(config, BENCHMARKS, n_references=REFS, seed=0,
                          warmup_fraction=WARMUP)
        first = run_suite(config, BENCHMARKS, n_references=REFS, seed=0,
                          warmup_fraction=WARMUP, result_store=store)
        assert registry.counters("result_store.")["result_store.writes"] == 2
        second = run_suite(config, BENCHMARKS, n_references=REFS, seed=0,
                           warmup_fraction=WARMUP, result_store=store)
        assert registry.counters("result_store.")["result_store.hits"] == 2
        for bench in BENCHMARKS:
            expected = canonical_json(run_result_to_dict(plain.runs[bench]))
            assert canonical_json(
                run_result_to_dict(first.runs[bench])) == expected
            assert canonical_json(
                run_result_to_dict(second.runs[bench])) == expected


class TestSweepStore:
    def test_sweep_shares_entries_with_run_suite(self, tmp_path):
        registry = StatRegistry()
        store = ResultStore(str(tmp_path), registry=registry)
        config = vectorized(nurapid_config())
        suite = run_suite(config, BENCHMARKS, n_references=REFS, seed=0,
                          warmup_fraction=WARMUP, result_store=store)
        sweep = Sweep(
            axes=[SweepAxis("seed", (0,))],
            build=lambda seed: vectorized(nurapid_config(seed=seed)),
            benchmarks=BENCHMARKS, n_references=REFS, seed=0,
            warmup_fraction=WARMUP, result_store=store,
        )
        points = sweep.run()
        # Every cell restored from the store: zero simulation work.
        assert registry.counters("result_store.")["result_store.hits"] == 2
        assert all(o.ok for o in points[0].outcomes.values())
        for bench in BENCHMARKS:
            assert canonical_json(
                run_result_to_dict(points[0].runs[bench])
            ) == canonical_json(run_result_to_dict(suite.runs[bench]))

    def test_sweep_publishes_for_later_sweeps(self, tmp_path):
        registry = StatRegistry()
        store = ResultStore(str(tmp_path), registry=registry)

        def make():
            return Sweep(
                axes=[SweepAxis("seed", (0,))],
                build=lambda seed: vectorized(nurapid_config(seed=seed)),
                benchmarks=["bzip2"], n_references=REFS, seed=0,
                warmup_fraction=WARMUP, result_store=store,
            )

        make().run()
        assert registry.counters("result_store.")["result_store.writes"] == 1
        make().run()
        assert registry.counters("result_store.")["result_store.hits"] == 1


@pytest.fixture(scope="class")
def service(tmp_path_factory):
    """One server shared by the class: booting pools is the slow part."""
    store_dir = tmp_path_factory.mktemp("service-store")
    registry = StatRegistry()
    config = ServerConfig(store_dir=str(store_dir), jobs=2)
    with serve_in_thread(config, registry=registry) as bg:
        client = ServiceClient(bg.url)
        client.wait_healthy()
        yield type("Ctx", (), {
            "bg": bg, "client": client, "registry": registry,
            "store_dir": str(store_dir), "config": config,
        })


def grid(client_name="anon", telemetry=False, **overrides):
    fields = dict(
        configs=[config_spec("nurapid"), config_spec("s-nuca")],
        benchmarks=BENCHMARKS,
        client=client_name,
        n_references=REFS,
        seed=0,
        warmup_fraction=WARMUP,
        engine="vectorized",
        telemetry=telemetry,
    )
    fields.update(overrides)
    return GridRequest(**fields)


class TestServerEndToEnd:
    CONFIGS = [vectorized(nurapid_config()), vectorized(snuca_config())]

    def test_grid_byte_identical_to_run_suite(self, service):
        direct = direct_suites(self.CONFIGS)
        submission = service.client.submit(grid("alice"))
        status = service.client.wait(str(submission["job"]))
        assert all(c["status"] in ("ok", "hit") for c in status["cells"])
        suites = ServiceClient.suites(status)
        for config in self.CONFIGS:
            for bench in BENCHMARKS:
                assert canonical_json(
                    run_result_to_dict(suites[config.name].runs[bench])
                ) == canonical_json(
                    run_result_to_dict(direct[config.name].runs[bench])
                )

    def test_warm_resubmission_does_zero_work(self, service):
        service.client.submit(grid("alice"))  # ensure warm (may be already)
        before = service.registry.counters("service.")
        submission = service.client.submit(grid("bob"))
        assert submission["done"] is True
        assert submission["memo_hits"] == 4
        after = service.registry.counters("service.")
        assert after.get("service.cells_enqueued", 0) == before.get(
            "service.cells_enqueued", 0
        )

    def test_events_replay_full_history(self, service):
        submission = service.client.submit(grid("alice"))
        events = list(service.client.events(str(submission["job"])))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "submitted" and kinds[-1] == "done"
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_stats_surface_store_and_queue(self, service):
        stats = service.client.stats()
        assert stats["store_entries"] >= 4
        assert "service.cells_submitted" in stats["counters"]
        assert stats["memo_hit_rate"] > 0.0


class TestServerConfig:
    def test_default_engine_checked_at_construction(self, tmp_path):
        with pytest.raises(ConfigurationError, match="'aprox' in default_engine"):
            ServerConfig(store_dir=str(tmp_path), default_engine="aprox")
        config = ServerConfig(store_dir=str(tmp_path), default_engine="legacy")
        assert config.default_engine == "legacy"


class TestServerConcurrency:
    def test_concurrent_identical_grids_one_entry_each(self, tmp_path):
        registry = StatRegistry()
        with serve_in_thread(
            ServerConfig(store_dir=str(tmp_path), jobs=2),
            registry=registry,
        ) as bg:
            probe = ServiceClient(bg.url)
            probe.wait_healthy()
            statuses = {}

            def run(name):
                client = ServiceClient(bg.url)
                submission = client.submit(grid(name, benchmarks=["bzip2"],
                                                configs=[config_spec("nurapid")]))
                statuses[name] = client.wait(str(submission["job"]))

            threads = [
                threading.Thread(target=run, args=(name,))
                for name in ("alice", "bob")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            store = ResultStore(str(tmp_path), registry=StatRegistry())
            # One cell, two clients: exactly one store entry...
            assert store.entries() == 1
            # ...and byte-identical payloads delivered to both.
            a = statuses["alice"]["cells"][0]["payload"]
            b = statuses["bob"]["cells"][0]["payload"]
            assert canonical_json(a) == canonical_json(b)
            counters = registry.counters("service.")
            # The duplicate either coalesced onto the in-flight twin or
            # hit the store — it never simulated twice.
            assert counters.get("service.cells_enqueued", 0) == 1

    def test_corrupted_entry_recovered_by_recompute(self, tmp_path):
        registry = StatRegistry()
        request = grid("alice", benchmarks=["bzip2"],
                       configs=[config_spec("nurapid")])
        with serve_in_thread(
            ServerConfig(store_dir=str(tmp_path), jobs=1),
            registry=registry,
        ) as bg:
            client = ServiceClient(bg.url)
            client.wait_healthy()
            first = client.wait(str(client.submit(request)["job"]))
            store = ResultStore(str(tmp_path), registry=StatRegistry())
            key = first["cells"][0]["key"]
            path = store.path_for(key)
            raw = bytearray(open(path, "rb").read())
            raw[len(raw) // 2] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(raw)
            second = client.wait(str(client.submit(request)["job"]))
            assert second["cells"][0]["status"] == "ok"  # recomputed
            assert canonical_json(
                first["cells"][0]["payload"]
            ) == canonical_json(second["cells"][0]["payload"])
            counters = registry.counters("result_store.")
            assert counters["result_store.corrupt_recovered"] >= 1

    def test_restart_resumes_from_store(self, tmp_path):
        request = grid("alice")
        with serve_in_thread(ServerConfig(store_dir=str(tmp_path), jobs=2)) as bg:
            client = ServiceClient(bg.url)
            client.wait_healthy()
            first = client.wait(str(client.submit(request)["job"]))
        # Server gone (jobs and queue with it); the store survives.
        registry = StatRegistry()
        with serve_in_thread(
            ServerConfig(store_dir=str(tmp_path), jobs=2), registry=registry
        ) as bg:
            client = ServiceClient(bg.url)
            client.wait_healthy()
            submission = client.submit(request)
            assert submission["done"] is True and submission["memo_hits"] == 4
            second = client.job(str(submission["job"]))
        for a, b in zip(first["cells"], second["cells"]):
            assert canonical_json(a["payload"]) == canonical_json(b["payload"])
        assert registry.counters("service.").get(
            "service.cells_enqueued", 0
        ) == 0

    def test_quota_rejects_whole_grid_atomically(self, tmp_path):
        with serve_in_thread(
            ServerConfig(store_dir=str(tmp_path), jobs=1, quota=2)
        ) as bg:
            client = ServiceClient(bg.url)
            client.wait_healthy()
            with pytest.raises(ServiceError) as excinfo:
                client.submit(grid("greedy"))  # 4 cells > quota 2
            assert excinfo.value.status == 429
            # Nothing partially admitted.
            assert client.stats()["queue_depth"] == 0

    def test_telemetry_report_bytes_match_direct(self, tmp_path):
        configs = [vectorized(nurapid_config()), vectorized(snuca_config())]
        direct = direct_suites(configs, telemetry=TelemetryConfig())
        pairs = [
            (f"{name}/{bench}", direct[name].runs[bench].telemetry)
            for name in sorted(direct)
            for bench in BENCHMARKS
        ]
        expected = render_report(merge_payloads(pairs))
        with serve_in_thread(ServerConfig(store_dir=str(tmp_path), jobs=2)) as bg:
            client = ServiceClient(bg.url)
            client.wait_healthy()
            status = client.wait(
                str(client.submit(grid("alice", telemetry=True))["job"])
            )
        suites = ServiceClient.suites(status)
        served_pairs = [
            (f"{name}/{bench}", suites[name].runs[bench].telemetry)
            for name in sorted(suites)
            for bench in BENCHMARKS
        ]
        assert render_report(merge_payloads(served_pairs)) == expected

    def test_unknown_routes_and_jobs(self, tmp_path):
        with serve_in_thread(ServerConfig(store_dir=str(tmp_path), jobs=1)) as bg:
            client = ServiceClient(bg.url)
            client.wait_healthy()
            with pytest.raises(ServiceError) as excinfo:
                client.job("nonexistent")
            assert excinfo.value.status == 404
