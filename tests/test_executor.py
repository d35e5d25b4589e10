"""One cell executor: every pooled cell runs on the supervised worker pool.

``run_cells`` runs cells in-process only as the serial reference (one
job, no supervisor config); everything pooled — grids, sweeps, the CLIs
and the job server — goes through the supervisor's worker slots.  These
tests pin the consequences: a plain ``run_cells(tasks, 2)`` and a
service job both survive a killed worker with byte-identical results,
the server enforces ``cell_timeout_s`` on its own, bad timeouts fail
before any work, workers run the ``execute_cell`` their caller names,
and the single-run CLI prints the same bytes at any ``--jobs``.
"""

import dataclasses
import os

import pytest

from repro.common.errors import ConfigurationError
from repro.resilience import chaos
from repro.service.client import ServiceClient
from repro.service.protocol import GridRequest, canonical_json, config_spec
from repro.service.server import ServerConfig, serve_in_thread
from repro.sim import parallel
from repro.sim.config import nurapid_config, snuca_config
from repro.sim.driver import run_suite
from repro.sim.parallel import CellTask, run_cells
from repro.sim.results import run_result_to_dict
from repro.telemetry import reset_runtime_registry, runtime_counters
from repro.telemetry.registry import StatRegistry

REFS = 3_000
WARMUP = 0.4
BENCHMARKS = ["bzip2", "twolf"]
MARKS_ENV = "REPRO_TEST_EXECUTE_MARKS"
#: The program's execute_cell, captured before any test rebinds it.
ORIGINAL_EXECUTE = parallel.execute_cell


def marking_execute_cell(task):
    """``execute_cell`` that leaves a ``<pid>-<index>`` mark per cell."""
    name = f"{os.getpid()}-{task.index}"
    open(os.path.join(os.environ[MARKS_ENV], name), "w").close()
    return ORIGINAL_EXECUTE(task)


@pytest.fixture(autouse=True)
def _fresh_runtime_registry():
    reset_runtime_registry()
    yield
    reset_runtime_registry()


@pytest.fixture
def chaos_dir(tmp_path, monkeypatch):
    directory = str(tmp_path / "chaos")
    monkeypatch.setenv(chaos.CHAOS_ENV, directory)
    monkeypatch.setenv(chaos.HANG_ENV, "60")
    return directory


def make_tasks():
    cells = [
        (config, benchmark)
        for config in (nurapid_config(), snuca_config())
        for benchmark in BENCHMARKS
    ]
    return [
        CellTask(
            index=i,
            config=config,
            benchmark=benchmark,
            n_references=REFS,
            seed=7,
            warmup_fraction=WARMUP,
        )
        for i, (config, benchmark) in enumerate(cells)
    ]


class TestRunCells:
    def test_pooled_run_cells_recovers_a_killed_worker(self, chaos_dir):
        tasks = make_tasks()
        expected = run_cells(tasks, jobs=1)
        chaos.inject_kill(chaos_dir, index=1)
        assert run_cells(tasks, 2) == expected
        counters = runtime_counters()
        assert counters["supervisor.retries"] == 1
        assert counters["supervisor.crashes"] == 1

    def test_serial_reference_never_probes_chaos(self, chaos_dir):
        tasks = make_tasks()
        flag = chaos.inject_kill(chaos_dir, index=1)
        run_cells(tasks, jobs=1)
        assert os.path.exists(flag)  # in-process: nothing to kill
        assert "supervisor.retries" not in runtime_counters()

    def test_workers_run_the_execute_cell_named_at_call_time(
        self, tmp_path, monkeypatch
    ):
        marks = tmp_path / "marks"
        marks.mkdir()
        monkeypatch.setenv(MARKS_ENV, str(marks))
        monkeypatch.setattr(parallel, "execute_cell", marking_execute_cell)
        tasks = make_tasks()
        assert run_cells(tasks, 2) == [ORIGINAL_EXECUTE(t) for t in tasks]
        pids, indices = zip(*(name.split("-") for name in os.listdir(marks)))
        assert sorted(int(i) for i in indices) == [t.index for t in tasks]
        assert str(os.getpid()) not in pids


def service_grid(benchmarks):
    return GridRequest(
        configs=[config_spec("nurapid")],
        benchmarks=list(benchmarks),
        client="chaos",
        n_references=REFS,
        seed=0,
        warmup_fraction=WARMUP,
        engine="vectorized",
    )


def direct_payloads(benchmarks):
    config = dataclasses.replace(nurapid_config(), engine="vectorized")
    suite = run_suite(
        config, list(benchmarks), n_references=REFS, seed=0, warmup_fraction=WARMUP
    )
    return {b: canonical_json(run_result_to_dict(suite.runs[b])) for b in benchmarks}


class TestServiceWorkers:
    def test_killed_worker_cell_is_retried_byte_identically(
        self, tmp_path, chaos_dir
    ):
        flag = chaos.inject_kill(chaos_dir, index=0)
        registry = StatRegistry()
        config = ServerConfig(store_dir=str(tmp_path / "store"), jobs=1)
        with serve_in_thread(config, registry=registry) as bg:
            client = ServiceClient(bg.url)
            client.wait_healthy()
            status = client.wait(str(client.submit(service_grid(["bzip2"]))["job"]))
        cell = status["cells"][0]
        assert not os.path.exists(flag)  # the worker really died once
        assert cell["status"] == "ok"
        assert cell["payload"]["outcome"]["attempts"] == 1
        assert canonical_json(cell["payload"]["result"]) == direct_payloads(
            ["bzip2"]
        )["bzip2"]
        counters = registry.counters("supervisor.")
        assert counters["supervisor.crashes"] == 1
        assert counters["supervisor.retries"] == 1

    def test_cell_timeout_is_enforced(self, tmp_path, chaos_dir):
        chaos.inject_hang(chaos_dir, index=0)
        registry = StatRegistry()
        config = ServerConfig(
            store_dir=str(tmp_path / "store"), jobs=1, cell_timeout_s=5.0
        )
        with serve_in_thread(config, registry=registry) as bg:
            client = ServiceClient(bg.url)
            client.wait_healthy()
            status = client.wait(str(client.submit(service_grid(["bzip2"]))["job"]))
        assert status["cells"][0]["status"] == "ok"
        assert registry.counters("supervisor.")["supervisor.timeouts"] >= 1


class TestTimeoutValidation:
    def test_server_config_rejects_nonpositive_timeout(self, tmp_path):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="cell_timeout_s"):
                ServerConfig(store_dir=str(tmp_path), cell_timeout_s=bad)

    @pytest.mark.parametrize(
        "cli, argv",
        [
            ("repro.service.__main__", ["serve", "--store", "unused"]),
            ("repro.experiments.__main__", ["table4", "--scale", "smoke"]),
        ],
    )
    def test_clis_reject_nonpositive_timeout(self, monkeypatch, capsys, cli, argv):
        import importlib

        from repro.experiments.common import default_supervisor

        module = importlib.import_module(cli)

        def started(*args, **kwargs):
            raise AssertionError("the command started work")

        # A server that started would serve forever; fail instead.
        if hasattr(module, "SimulationServer"):
            monkeypatch.setattr(module, "SimulationServer", started)
        with pytest.raises(SystemExit) as exit_info:
            module.main(argv + ["--cell-timeout", "0"])
        assert exit_info.value.code == 2
        assert "--cell-timeout" in capsys.readouterr().err
        assert default_supervisor() is None


class TestSimCLI:
    def test_jobs_do_not_change_output(self, capsys):
        from repro.sim.__main__ import main

        argv = ["compare", "twolf", "--refs", "20000", "--seed", "3"]
        outputs = []
        for jobs in ("1", "2"):
            assert main(argv + ["--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "vs base" in outputs[0]
