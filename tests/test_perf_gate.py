"""The verdict of ``scripts/perf_gate.py`` (perfbench, head vs base)."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "perf_gate.py")
_spec = importlib.util.spec_from_file_location("perf_gate", _PATH)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "rate", "better": "higher", "bound": 0.25},
        {"name": "time", "better": "lower", "bound": 0.25},
    ],
}


def run(rate=100.0, time=1.0, correct=True, drop=()):
    metrics = {"rate": {"value": rate}, "time": {"value": time}}
    for name in drop:
        del metrics[name]
    return {"correct": correct, "failed": 0, "metrics": metrics}


def gate(head_runs, base_runs=None):
    base = {"w": base_runs or [run(), run(), run()]}
    return perf_gate.verdict(SPEC, base, {"w": head_runs})


def test_within_bound_passes():
    rows, failures = gate([run(rate=80.0, time=1.2)] * 3)
    assert failures == []
    assert [row["ok"] for row in rows] == [True, True]
    assert rows[0]["worse"] == pytest.approx(0.2)


def test_better_passes():
    _, failures = gate([run(rate=500.0, time=0.1)] * 3)
    assert failures == []


@pytest.mark.parametrize(
    "head, metric",
    [(run(rate=70.0), "rate"), (run(time=1.3), "time")],
    ids=["higher-is-better", "lower-is-better"],
)
def test_past_bound_fails(head, metric):
    rows, failures = gate([head] * 3)
    assert len(failures) == 1
    assert failures[0].startswith(f"w: {metric} is ")
    assert [row["metric"] for row in rows if not row["ok"]] == [metric]


def test_median_ignores_one_outlier():
    _, failures = gate([run(time=5.0), run(), run()])
    assert failures == []


@pytest.mark.parametrize("side", ["base", "head"])
def test_incorrect_run_fails(side):
    bad = [run(), run(correct=False), run()]
    good = [run(), run(), run()]
    _, failures = gate(bad if side == "head" else good, bad if side == "base" else good)
    assert failures == [f"w: {side} run 2 is incorrect (0 failed ops)"]


def test_missing_metric_fails():
    _, failures = gate([run(), run(drop=("time",)), run()])
    assert failures == ["w: time missing from a head run"]


def test_missing_workload_fails():
    _, failures = perf_gate.verdict(SPEC, {"w": [run()]}, {})
    assert failures == ["w: no head runs"]
