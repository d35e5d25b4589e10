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
