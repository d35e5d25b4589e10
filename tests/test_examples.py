"""The examples must stay runnable: execute each with tiny inputs."""

import runpy
import sys

import pytest


def run_example(monkeypatch, capsys, path, argv):
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(path, run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    # Shrink the loop so the example finishes in CI time.
    import random

    out_path = "examples/quickstart.py"
    source = open(out_path).read()
    assert "120_000" in source
    shrunk = source.replace("120_000", "8_000")
    namespace = {"__name__": "__main__", "random": random}
    exec(compile(shrunk, out_path, "exec"), namespace)
    out = capsys.readouterr().out
    assert "NuRAPID demo cache" in out
    assert "hits in d-group 0" in out


def test_compare_architectures(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "examples/compare_architectures.py",
        ["compare_architectures.py", "twolf", "40000"],
    )
    assert "benchmark: twolf" in out
    assert "base" in out and "dnuca" in out.lower()


def test_branch_predictor(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "examples/branch_predictor.py", ["branch_predictor.py"]
    )
    assert "hybrid" in out
    assert "mispredict rate" in out


def test_layout_reliability(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "examples/layout_reliability.py", ["layout_reliability.py"]
    )
    assert "SEC-DED in action" in out
    assert "Manufacturing yield" in out
    assert "cache healthy" in out


def test_fault_resilience_checkpoint_and_resume(monkeypatch, capsys, tmp_path):
    # Shrink the grid's trace length so the example finishes in CI time.
    path = "examples/fault_resilience.py"
    source = open(path).read()
    assert "120_000" in source
    shrunk = source.replace("120_000", "20_000")
    store = str(tmp_path / "resilience-store")
    monkeypatch.setattr(sys, "argv", [path, "twolf", store])

    exec(compile(shrunk, path, "exec"), {"__name__": "__main__"})
    first = capsys.readouterr().out
    assert "wrote result store" in first
    assert "nurapid rel IPC" in first

    exec(compile(shrunk, path, "exec"), {"__name__": "__main__"})
    second = capsys.readouterr().out
    assert "resumed from result store" in second
    # Everything below the timing line is restored bit-identically.
    assert first.splitlines()[1:] == second.splitlines()[1:]


@pytest.mark.slow
def test_design_space(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "examples/design_space.py", ["design_space.py", "twolf"]
    )
    assert "d-groups" in out


def test_parallel_sweep(monkeypatch, capsys, tmp_path):
    import tempfile

    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
    out = run_example(
        monkeypatch, capsys, "examples/parallel_sweep.py",
        ["parallel_sweep.py", "2", "6000"],
    )
    assert "bit-identical: True" in out

    # Second invocation finds the store and restores every cell.
    out = run_example(
        monkeypatch, capsys, "examples/parallel_sweep.py",
        ["parallel_sweep.py", "2", "6000"],
    )
    assert "resumed from result store" in out
    assert "bit-identical: True" in out


def test_cmp_contention(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "examples/cmp_contention.py",
        ["cmp_contention.py", "twolf", "8000"],
    )
    assert "chip throughput" in out
    assert "scaling vs 1 core" in out
    assert "fairness (Jain)" in out
    assert "mixed twolf+mcf" in out


def test_simulation_service(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "examples/simulation_service.py",
        ["simulation_service.py", "6000"],
    )
    assert "byte-identical: True" in out
    assert "identical payloads: True" in out
    assert "4/4 cells from store" in out


@pytest.mark.slow
def test_custom_workload(monkeypatch, capsys):
    from repro.workloads.spec2k import SPEC2K_SUITE

    try:
        out = run_example(
            monkeypatch, capsys, "examples/custom_workload.py", ["custom_workload.py"]
        )
    finally:
        # The example registers its profiles in the global suite;
        # remove them so suite-shape tests stay valid.
        SPEC2K_SUITE.pop("fits2mb", None)
        SPEC2K_SUITE.pop("spills2mb", None)
    assert "fits2mb" in out
