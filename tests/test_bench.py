"""The ``python -m repro.bench`` correctness-check CLI."""

from repro import bench


def test_engine_parity_passes(capsys):
    assert bench.main(["--engine-parity", "--refs", "4000"]) == 0
    out = capsys.readouterr().out
    assert "engine parity: ok" in out
    assert "serial == pool (jobs=" in out


def test_a_mismatch_fails(monkeypatch, capsys):
    monkeypatch.setattr(
        bench, "engine_parity", lambda *args: ["nurapid/galgel: results differ"]
    )
    assert bench.main(["--engine-parity", "--refs", "4000"]) == 1
    assert "ERROR: engine parity: nurapid/galgel" in capsys.readouterr().out


def test_dnuca_cells_check_the_solve(monkeypatch):
    """The D-NUCA cells' unarmed runs go through the kernel's whole-slice
    solve, so a fault in it shows as a mismatch with legacy."""
    from repro.nuca.cache import DNUCACache
    from repro.workloads.spec2k import get_benchmark
    from repro.workloads.tracegen import generate_trace

    real = DNUCACache.solve_outcomes

    def miscounting(self, *args):
        outcomes = real(self, *args)
        self.stats.add("hits")
        return outcomes

    monkeypatch.setattr(DNUCACache, "solve_outcomes", miscounting)
    cells = bench.dnuca_cells()
    traces = {
        b: generate_trace(get_benchmark(b), 4000, seed=bench.SEED) for _, b in cells
    }
    assert bench.engine_parity(cells, traces, 4000, bench.SEED, bench.WARMUP) == [
        f"{config.name}/{b}: vectorized results differ from legacy"
        for config, b in cells
    ]
