"""The repro.telemetry subsystem: registry, tracing, reports, plumbing."""

import json
import os
from dataclasses import replace
from time import perf_counter

import pytest

from repro.common.errors import ConfigurationError
from repro.common.stats import Counter
from repro.sim.config import nurapid_config
from repro.service.store import ResultStore
from repro.sim.driver import run_benchmark, run_suite
from repro.sim.parallel import CellTask, cell_fingerprint
from repro.sim.results import run_result_to_dict
from repro.sim.sweep import Sweep, SweepAxis
from repro.telemetry import (
    EventTracer,
    Histogram,
    LATENCY_BOUNDS,
    StatRegistry,
    Telemetry,
    TelemetryConfig,
    occupancy_bounds,
    read_trace,
    runtime_counters,
    telemetry_from_env,
    trace_summary,
)
from repro.telemetry.__main__ import main as telemetry_cli
from repro.telemetry.report import (
    dgroup_caches,
    dgroup_rows,
    extract_payloads,
    merge_payloads,
    render_report,
)

REFS = 20_000


class TestHistogram:
    def test_bucketing_and_mean(self):
        hist = Histogram((10, 20))
        for value in (5, 10, 15, 100):
            hist.record(value)
        assert hist.counts == [2, 1, 1]  # <=10, <=20, overflow
        assert hist.n == 4
        assert hist.mean == pytest.approx(32.5)
        assert hist.min == 5 and hist.max == 100

    def test_quantiles_bucket_resolution(self):
        hist = Histogram((1, 2, 4, 8))
        for _ in range(90):
            hist.record(1)
        for _ in range(10):
            hist.record(8)
        assert hist.quantile(0.5) == 1
        assert hist.quantile(0.95) == 8
        assert hist.quantile(0.0) == 1

    def test_overflow_quantile_reports_observed_max(self):
        hist = Histogram((1,))
        hist.record(99)
        assert hist.quantile(1.0) == 99

    def test_merge_commutative(self):
        a, b = Histogram((5, 10)), Histogram((5, 10))
        for v in (1, 7, 12):
            a.record(v)
        for v in (3, 20):
            b.record(v)
        ab = Histogram.from_dict(a.to_dict())
        ab.merge(b)
        ba = Histogram.from_dict(b.to_dict())
        ba.merge(a)
        assert ab.to_dict() == ba.to_dict()

    def test_merge_associative(self):
        parts = []
        for seed in range(3):
            hist = Histogram((5, 10))
            for v in range(seed, 15, 3):
                hist.record(v)
            parts.append(hist)
        left = Histogram.from_dict(parts[0].to_dict())
        left.merge(parts[1])
        left.merge(parts[2])
        right_tail = Histogram.from_dict(parts[1].to_dict())
        right_tail.merge(parts[2])
        right = Histogram.from_dict(parts[0].to_dict())
        right.merge(right_tail)
        assert left.to_dict() == right.to_dict()

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ConfigurationError, match="different bounds"):
            Histogram((1, 2)).merge(Histogram((1, 3)))

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            Histogram(())
        with pytest.raises(ConfigurationError):
            Histogram((2, 1))
        with pytest.raises(ConfigurationError):
            Histogram((1, 1))

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram((1,)).record(0, weight=-1)

    def test_dict_roundtrip(self):
        hist = Histogram(LATENCY_BOUNDS)
        for v in (3, 17, 900):
            hist.record(v)
        clone = Histogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert clone.to_dict() == hist.to_dict()

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            Histogram.from_dict({"bounds": [1, 2]})
        with pytest.raises(ConfigurationError, match="malformed"):
            Histogram.from_dict({"bounds": [1, 2], "counts": [0], "n": 0, "sum": 0})

    def test_occupancy_bounds(self):
        assert occupancy_bounds(3) == (0.0, 1.0, 2.0, 3.0)
        with pytest.raises(ConfigurationError):
            occupancy_bounds(0)


class TestStatRegistry:
    def test_int_exact_counters(self):
        registry = StatRegistry()
        for _ in range(5):
            registry.add("l2.hits")
        assert registry.get("l2.hits") == 5
        assert isinstance(registry.get("l2.hits"), int)

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigurationError):
            StatRegistry().add("x", -1)

    def test_scope_prefixing(self):
        registry = StatRegistry()
        scope = registry.scope("l2").scope("dg0")
        scope.add("hits", 3)
        assert registry.get("l2.dg0.hits") == 3
        assert scope.path == "l2.dg0"
        with pytest.raises(ConfigurationError):
            registry.scope("")

    def test_set_is_gauge_overwrite(self):
        registry = StatRegistry()
        registry.set("occ", 4)
        registry.set("occ", 7)
        assert registry.get("occ") == 7

    def test_histogram_fetch_or_create_checks_bounds(self):
        registry = StatRegistry()
        hist = registry.histogram("lat", (1, 2))
        assert registry.histogram("lat", (1, 2)) is hist
        with pytest.raises(ConfigurationError, match="different bounds"):
            registry.histogram("lat", (1, 3))

    def test_merge_is_lossless_over_partitions(self):
        # Any partition of the increments merges back to the serial total.
        serial = StatRegistry()
        workers = [StatRegistry() for _ in range(3)]
        for i in range(60):
            serial.add("hits")
            serial.histogram("lat", (4, 8)).record(i % 10)
            worker = workers[i % 3]
            worker.add("hits")
            worker.histogram("lat", (4, 8)).record(i % 10)
        merged = StatRegistry.merged(w.to_dict() for w in workers)
        assert merged.to_dict() == serial.to_dict()

    def test_merge_order_invariant(self):
        parts = []
        for offset in range(3):
            registry = StatRegistry()
            registry.add("n", offset + 1)
            registry.histogram("h", (1,)).record(offset)
            parts.append(registry.to_dict())
        forward = StatRegistry.merged(parts)
        backward = StatRegistry.merged(reversed(parts))
        assert forward.to_dict() == backward.to_dict()

    def test_prefixes(self):
        registry = StatRegistry()
        registry.add("l2.dg0.hits")
        registry.add("l1d.hits")
        registry.histogram("core.occ", (1,))
        assert registry.prefixes() == ["core", "l1d", "l2"]

    def test_counters_filtered_sorted(self):
        registry = StatRegistry()
        registry.add("b.x")
        registry.add("a.y")
        registry.add("b.a")
        assert list(registry.counters("b.")) == ["b.a", "b.x"]

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            StatRegistry.from_dict({"counters": 7})


class TestCommonStats:
    def test_counter_int_exact(self):
        counter = Counter()
        for _ in range(3):
            counter.add("hits")
        counter.add("hits", 4)
        assert counter.get("hits") == 7
        assert isinstance(counter.get("hits"), int)


class TestTelemetryConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TelemetryConfig(trace_sample=0)
        with pytest.raises(ConfigurationError):
            TelemetryConfig(trace_limit=0)

    def test_events_enabled(self):
        assert not TelemetryConfig().events_enabled
        assert TelemetryConfig(events=True).events_enabled
        assert TelemetryConfig(trace_dir="/tmp/x").events_enabled

    def test_fingerprint_json_safe(self):
        fp = TelemetryConfig(trace_dir="d", trace_sample=2).fingerprint()
        assert json.loads(json.dumps(fp)) == fp

    def test_from_env(self, tmp_path):
        assert telemetry_from_env(None) is None
        assert telemetry_from_env("") is None
        assert telemetry_from_env("off") is None
        assert telemetry_from_env("0") is None
        on = telemetry_from_env("on")
        assert on == TelemetryConfig()
        traced = telemetry_from_env(str(tmp_path))
        assert traced.trace_dir == str(tmp_path)
        assert traced.events_enabled


class TestEventTracer:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EventTracer(sample=0)
        with pytest.raises(ConfigurationError):
            EventTracer(limit=0)

    def test_sampling_decimates(self):
        tracer = EventTracer(sample=3)
        for i in range(10):
            tracer.emit("placement", addr=i)
        assert tracer.seen == 10
        assert [e["addr"] for e in tracer.events()] == [0, 3, 6, 9]
        assert all(e["seq"] == e["addr"] + 1 for e in tracer.events())

    def test_head_bounding_keeps_first(self):
        tracer = EventTracer(limit=3)
        for i in range(10):
            tracer.emit("placement", addr=i)
        assert [e["addr"] for e in tracer.events()] == [0, 1, 2]
        assert tracer.dropped == 7
        assert tracer.seen == 10

    def test_ring_keeps_last(self):
        tracer = EventTracer(limit=3, ring=True)
        for i in range(10):
            tracer.emit("placement", addr=i)
        assert [e["addr"] for e in tracer.events()] == [7, 8, 9]
        assert tracer.dropped == 7

    def test_per_kind_counts_unsampled(self):
        tracer = EventTracer(sample=2)
        for _ in range(4):
            tracer.emit("placement")
        tracer.emit("demotion")
        summary = tracer.summary()
        assert summary["per_kind"] == {"demotion": 1, "placement": 4}
        assert summary["kept"] == 3  # seq 1, 3, 5

    def test_flush_roundtrip_with_meta(self, tmp_path):
        tracer = EventTracer()
        tracer.emit("placement", addr=1, dgroup=0)
        tracer.emit("eviction", addr=2)
        path = tracer.flush(str(tmp_path / "deep" / "t.jsonl"))
        events = read_trace(path)
        assert events[0]["kind"] == "meta"
        assert events[0]["kept"] == 2
        assert trace_summary(events) == {"eviction": 1, "placement": 1}
        assert events[1] == {"seq": 1, "kind": "placement", "addr": 1, "dgroup": 0}

    def test_read_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json{\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="unreadable"):
            read_trace(str(path))
        with pytest.raises(ConfigurationError, match="unreadable"):
            read_trace(str(tmp_path / "missing.jsonl"))


class TestCacheTelemetry:
    def test_on_access_counters_and_reuse(self):
        session = Telemetry(TelemetryConfig(events=True), "t")
        client = session.cache_client("l2")
        client.on_access(0x40, hit=True, dgroup=1, latency=8)
        client.on_access(0x80, hit=False, dgroup=None, latency=0)
        client.on_access(0x40, hit=True, dgroup=0, latency=4)
        registry = session.registry
        assert registry.get("l2.dg1.hits") == 1
        assert registry.get("l2.dg0.hits") == 1
        assert registry.get("l2.misses") == 1
        assert client.hit_latency.n == 2
        assert client.reuse.n == 1  # only 0x40 was re-seen (distance 2)
        client.event("placement", addr=0x80, dgroup=0)
        assert session.tracer.events()[0]["cache"] == "l2"

    def test_flat_cache_uses_plain_hits(self):
        session = Telemetry(TelemetryConfig(), "t")
        client = session.cache_client("l1d")
        client.on_access(0, hit=True, dgroup=None, latency=1)
        assert session.registry.get("l1d.hits") == 1

    def test_event_null_without_tracer(self):
        session = Telemetry(TelemetryConfig(), "t")
        client = session.cache_client("l2")
        client.event("placement", addr=0)  # no tracer: silently ignored
        assert session.tracer is None


class TestReport:
    def payload(self, run="r0"):
        session = Telemetry(TelemetryConfig(), run)
        scope = session.registry.scope("l2")
        scope.add("dg0.hits", 30)
        scope.add("dg1.hits", 10)
        scope.add("misses", 10)
        session.capture_gauge("l2.dg0.occupied", 8)
        session.capture_gauge("l2.dg0.frames", 16)
        session.capture_gauge("l2.dg1.frames", 16)
        session.capture_gauge("l2.energy_nj.dg0.read", 5.0)
        session.capture_gauge("l2.energy_nj.move.0->1", 2.0)
        return session.payload()

    def test_dgroup_rows(self):
        registry = merge_payloads([("r0", self.payload())])
        assert dgroup_caches(registry) == {"l2": [0, 1]}
        rows = dgroup_rows(registry, "l2")
        assert [r["dgroup"] for r in rows] == [0, 1, "miss"]
        assert rows[0]["hits"] == 30
        assert rows[0]["share"] == pytest.approx(0.6)
        assert rows[0]["energy_nj"] == pytest.approx(7.0)  # read + outbound move
        assert rows[0]["occupancy"] == pytest.approx(0.5)
        assert rows[1]["occupancy"] == 0.0  # frames reported, nothing occupied
        assert rows[2]["share"] == pytest.approx(0.2)

    def test_unknown_cache_rejected(self):
        registry = merge_payloads([("r0", self.payload())])
        with pytest.raises(ConfigurationError, match="no per-d-group"):
            dgroup_rows(registry, "nope")

    def test_render_report_sections(self):
        session = Telemetry(TelemetryConfig(), "r0")
        session.registry.scope("l2").add("dg0.hits", 4)
        session.histogram("lat", (1, 2)).record(1)
        text = render_report(merge_payloads([("r0", session.payload())]))
        assert "per-d-group breakdown" in text
        assert "-- histograms --" in text
        assert "-- counters --" in text

    def test_extract_payload_shapes(self):
        raw = self.payload()
        assert extract_payloads(raw) == [("r0", raw)]
        run_result = {"config_name": "c", "benchmark": "b", "telemetry": raw}
        assert extract_payloads(run_result) == [("c/b", raw)]
        entry = {
            "format": 1,
            "key": "ab" * 32,
            "payload": {
                "outcome": {"status": "ok", "attempts": 1},
                "result": {"config_name": "c", "benchmark": "b", "telemetry": raw},
            },
        }
        assert extract_payloads(entry) == [("c/b", raw)]
        suite = {"runs": {"b": {"telemetry": raw}}}
        assert extract_payloads(suite) == [("b", raw)]
        with pytest.raises(ConfigurationError, match="no telemetry"):
            extract_payloads({"telemetry": None})

    def test_merge_payloads_sorted_by_key(self):
        a, b = self.payload("a"), self.payload("b")
        forward = merge_payloads([("a", a), ("b", b)])
        backward = merge_payloads([("b", b), ("a", a)])
        assert forward.to_dict() == backward.to_dict()
        with pytest.raises(ConfigurationError, match="no registry"):
            merge_payloads([("x", {"run": "x"})])


class TestInstrumentedRuns:
    def test_results_identical_with_and_without_telemetry(self):
        config = nurapid_config()
        plain = run_benchmark(config, "art", n_references=REFS, seed=1)
        traced = run_benchmark(
            config,
            "art",
            n_references=REFS,
            seed=1,
            telemetry=TelemetryConfig(events=True),
        )
        assert plain.telemetry is None
        assert traced.telemetry is not None
        stripped = traced
        stripped.telemetry = None
        assert stripped == plain

    def test_payload_counters_match_run_stats(self):
        config = nurapid_config()
        result = run_benchmark(
            config, "art", n_references=REFS, seed=1,
            telemetry=TelemetryConfig(),
        )
        registry = merge_payloads([("art", result.telemetry)]).to_dict()
        counters = registry["counters"]
        l2 = "NuRAPID"  # the nurapid config's L2 scope name
        assert counters[f"{l2}.hits"] == result.l2_hits
        assert counters[f"{l2}.misses"] == result.l2_misses
        hits_by_group = sum(
            v for k, v in counters.items()
            if k.startswith(f"{l2}.dg") and k.endswith(".hits")
        )
        assert hits_by_group == result.l2_hits

    def test_serial_matches_two_workers_bit_identically(self):
        config = nurapid_config()
        reports = {}
        for jobs in (1, 2):
            suite = run_suite(
                config,
                ["art", "twolf"],
                n_references=REFS,
                seed=1,
                jobs=jobs,
                telemetry=TelemetryConfig(),
            )
            reports[jobs] = render_report(
                merge_payloads(
                    [(name, run.telemetry) for name, run in sorted(suite.runs.items())]
                )
            )
        assert reports[1] == reports[2]

    def test_trace_flushed_and_readable(self, tmp_path):
        result = run_benchmark(
            nurapid_config(),
            "art",
            n_references=REFS,
            seed=1,
            telemetry=TelemetryConfig(trace_dir=str(tmp_path), trace_limit=500),
        )
        trace = result.telemetry["trace"]
        assert os.path.dirname(trace["path"]) == str(tmp_path)
        events = read_trace(trace["path"])
        assert events[0]["kind"] == "meta"
        kinds = set(trace_summary(events))
        assert "placement" in kinds
        assert len(events) - 1 == trace["kept"] <= 500

    def test_run_phase_counters_always_on(self):
        config = replace(nurapid_config(), engine="vectorized")
        before = runtime_counters()
        started = perf_counter()
        result = run_benchmark(config, "art", n_references=REFS, seed=1)
        wall = perf_counter() - started
        after = runtime_counters()

        def delta(name):
            return after.get(name, 0.0) - before.get(name, 0.0)

        phases = [
            delta(f"run.{phase}_wall_s")
            for phase in ("tracegen", "build", "warmup", "measure")
        ]
        assert all(seconds > 0 for seconds in phases)
        assert sum(phases) <= wall
        assert delta("run.warmup_wall_s") + delta("run.measure_wall_s") >= delta(
            "vectorized.wall_s"
        )
        assert result.telemetry is None
        assert result == run_benchmark(config, "art", n_references=REFS, seed=1)


class TestCli:
    """``python -m repro.telemetry``, driven in-process."""

    def run(self, benchmark, **telemetry):
        return run_benchmark(
            nurapid_config(), benchmark, n_references=8_000, seed=1,
            telemetry=TelemetryConfig(**telemetry),
        )

    def test_report_matches_merged_render(self, tmp_path, capsys):
        art, twolf = self.run("art"), self.run("twolf")
        run_file = tmp_path / "art.json"
        run_file.write_text(json.dumps(run_result_to_dict(art)), encoding="utf-8")
        store = ResultStore(str(tmp_path / "store"))
        entry = store.put(
            "ab" * 32,
            {
                "outcome": {
                    "status": "ok", "attempts": 1, "error": None, "error_type": None,
                },
                "result": run_result_to_dict(twolf),
            },
        )
        assert telemetry_cli(["report", str(run_file), entry]) == 0
        expected = render_report(
            merge_payloads([("art", art.telemetry), ("twolf", twolf.telemetry)])
        )
        assert capsys.readouterr().out == expected + "\n"

    def test_file_without_payload_exits_1(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"benchmark": "art"}), encoding="utf-8")
        assert telemetry_cli(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "holds no telemetry payloads" in err

    def test_profile_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            telemetry_cli(["report", str(tmp_path / "x.json"), "--profile"])
        assert info.value.code == 2
        assert "--profile" in capsys.readouterr().err

    def test_trace_prints_meta_and_kind_counts(self, tmp_path, capsys):
        result = self.run("art", trace_dir=str(tmp_path))
        path = result.telemetry["trace"]["path"]
        assert telemetry_cli(["trace", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("events seen=")
        assert "ring=False" in lines[0]
        counts = dict(line.split() for line in lines[1:])
        assert counts == {
            kind: str(n) for kind, n in trace_summary(read_trace(path)).items()
        }
        assert "placement" in counts


class TestSweepTelemetry:
    def sweep(self, telemetry=None, **kw):
        defaults = dict(
            axes=[SweepAxis("n_dgroups", (2, 4))],
            build=lambda n_dgroups: nurapid_config(n_dgroups=n_dgroups),
            benchmarks=["wupwise"],
            n_references=8_000,
            telemetry=telemetry,
        )
        defaults.update(kw)
        return Sweep(**defaults)

    def test_store_key_includes_fingerprint(self):
        def key(telemetry):
            task = CellTask(
                index=0,
                config=nurapid_config(),
                benchmark="wupwise",
                n_references=8_000,
                seed=1,
                warmup_fraction=0.4,
                telemetry=telemetry,
            )
            return cell_fingerprint(task)

        assert key(None) != key(TelemetryConfig())

    def test_checkpoint_resume_preserves_payloads(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = self.sweep(TelemetryConfig(), result_store=store).run()
        assert all(p.runs["wupwise"].telemetry is not None for p in first)

        import repro.sim.parallel as parallel_mod

        def never_called(config, benchmark, **kw):  # pragma: no cover
            raise AssertionError("resume must restore cells, not re-run")

        original = parallel_mod.run_benchmark
        parallel_mod.run_benchmark = never_called
        try:
            second = self.sweep(TelemetryConfig(), result_store=store).run()
        finally:
            parallel_mod.run_benchmark = original
        for a, b in zip(first, second):
            assert a.runs["wupwise"].telemetry == b.runs["wupwise"].telemetry

    def test_resume_with_different_telemetry_misses(self, tmp_path):
        registry = StatRegistry()
        store = ResultStore(str(tmp_path), registry=registry)
        self.sweep(TelemetryConfig(), result_store=store).run()
        points = self.sweep(None, result_store=store).run()
        counters = registry.counters("result_store.")
        assert counters.get("result_store.hits", 0) == 0
        assert counters["result_store.writes"] == 4
        assert all(p.runs["wupwise"].telemetry is None for p in points)


class TestExperimentsDefault:
    def test_env_convention(self, monkeypatch):
        from repro.experiments.common import default_telemetry, reset_default_telemetry, set_default_telemetry

        reset_default_telemetry()
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        assert default_telemetry() == TelemetryConfig()
        # An explicit set — even to None — overrides the environment.
        set_default_telemetry(None)
        try:
            assert default_telemetry() is None
        finally:
            reset_default_telemetry()
        monkeypatch.delenv("REPRO_TELEMETRY")
        assert default_telemetry() is None
