"""End-to-end and per-layer benchmark of the NuRAPID reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay-l1 --seed 3 --seconds 15 --trace 0

``--trace 0`` times ops with nothing wrapped and reports the end-to-end
metrics, scaled to a nominal host speed that a fixed reference
computation measures after every op (``hostref.py``); ``--trace 1``
alternates untraced and traced ops and reports the per-layer metrics.
Every run checks each op's simulated results against the first op's
and against the ``legacy`` reference loop (and, for ``grid-cold`` and
``service-memo``, against in-process serial replay), then prints a
readable report followed by one JSON line.
The exit code is 0 only when every op matched.  See
``perfbench/README.md`` for the workloads and the steadiness design.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from hostref import Reference, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The program's ambient switches, pinned for every run and recorded
#: with each result.  Each one selects a code path: the engine, the
#: default worker count, telemetry arming, inline-pickled versus
#: mmapped trace transport, and the prewarm prototype cache.
PINNED_ENV = {
    "REPRO_ENGINE": "vectorized",
    "REPRO_JOBS": "2",
    "REPRO_TELEMETRY": "0",
    "REPRO_TRACE_CACHE": "",
    "REPRO_PREWARM_CACHE": "1",
}
#: Set-up runs per benchmark run (this process plus fresh probes).
SETUP_SAMPLES = 3
#: Host reference timings after each set-up.
SETUP_REFERENCES = 3
#: A tail needs ten ops beyond a percentile above p50: at least 21 ops.
MIN_OPS = 21
#: Ops stop at this multiple of ``--seconds`` even below MIN_OPS.
HARD_STOP = 6.0

#: Kernel-tier counters compared between traced and untraced ops.
TIER_COUNTS = (
    "vectorized.windows",
    "vectorized.refs",
    "vectorized.refs_vector",
    "vectorized.refs_scalar",
    "vectorized.runs_applied",
    "vectorized.runs_invalidated",
    "vectorized.l2_refs_vector",
    "vectorized.l2_runs_applied",
    "vectorized.l2_flags_stale",
    "vectorized.fallbacks",
)


def process_age_s() -> float:
    """Seconds since this process started (Linux ``/proc``)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def tail(values):
    """(percentile, value, values beyond): the highest integer percentile
    with at least ten values beyond it (nearest rank), or None if none is
    above p50."""
    n = len(values)
    if n < MIN_OPS:
        return None
    pct = 100 * (n - 10) // n
    if pct <= 50:
        return None
    rank = -(-pct * n // 100)
    return pct, sorted(values)[rank - 1], n - rank


def pin_environment(work_dir: str) -> None:
    os.environ.update(PINNED_ENV)
    # Temporary files of the program and its children stay in the checkout.
    os.environ["TMPDIR"] = work_dir
    os.environ["PYTHONPATH"] = SRC + os.pathsep + HERE


def run_ops(workload, seconds: float, traced: bool, reference):
    """Time ops until ``seconds`` pass (and at least MIN_OPS ran).

    Untraced runs time every op.  Traced runs alternate an untraced op
    and a traced op, so both see the same conditions.  The host
    ``reference`` is timed after every op, outside the op's time.
    Returns the ops and the reference times.
    """
    ops = []  # (wall_s, traced, OpResult or None, error)
    reference_times = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(ops) >= (4 if traced else MIN_OPS):
            break
        if elapsed >= seconds * HARD_STOP:
            break
        this_traced = traced and len(ops) % 2 == 1
        workload.before_op()
        gc.collect()
        t0 = time.perf_counter()
        try:
            result, error = workload.op(this_traced), None
        except Exception as exc:  # a failed op is counted, and the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        ops.append((time.perf_counter() - t0, this_traced, result, error))
        reference_times.append(reference.measure())
    return ops, reference_times


def check(ops, references):
    """Failed-op flags and messages: every op must equal the first good
    op cell for cell, and that op must equal every reference."""
    failed = [error is not None for _, _, _, error in ops]
    messages = [error for _, _, _, error in ops if error is not None]
    good = [r for _, _, r, e in ops if e is None]
    if not good:
        return failed, messages or ["no op completed"]
    first = good[0].digests
    for kind, expected in references.items():
        if expected != first:
            bad = sorted(k for k in set(expected) | set(first) if expected.get(k) != first.get(k))
            messages.append(f"results differ from the {kind} reference in {bad}")
            return [True] * len(ops), messages
    for i, (_, _, result, error) in enumerate(ops):
        if error is None and result.digests != first:
            failed[i] = True
            messages.append(f"op {i} results differ from op 0")
    return failed, messages


def end_to_end(workload, ops, setup_samples, peak_rss_kb, factor):
    """End-to-end metrics; times in nominal seconds (host seconds times
    ``factor``), the host values in the notes."""
    walls = [wall for wall, _, _, _ in ops]
    total = sum(walls)
    delivered = sum(1 for _, _, _, error in ops if error is None)
    raw = {
        "refs_per_s": workload.refs_per_op * delivered / total,
        "cells_per_s": workload.cells_per_op * delivered / total,
        "op_s_p50": statistics.median(walls),
    }
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "refs_per_s": (raw["refs_per_s"] / factor, "1/s"),
        "cells_per_s": (raw["cells_per_s"] / factor, "1/s"),
        "op_s_p50": (raw["op_s_p50"] * factor, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    found = tail(walls)
    notes = {"ops": len(ops)}
    if found is not None:
        pct, value, beyond = found
        raw["op_s_tail"] = value
        metrics["op_s_tail"] = (value * factor, "s")
        notes["op_s_tail_percentile"] = pct
        notes["ops_beyond_tail"] = beyond
    notes["host_seconds"] = raw
    return metrics, notes


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, ops, setup_spans, failed):
    """Per-op means over the traced ops (set-up layers: per run)."""
    traced = [r for _, t, r, e in ops if t and e is None]
    plain = [r for _, t, r, e in ops if not t and e is None]
    n = max(len(traced), 1)

    def spans(key):
        return sum(r.spans.get(key, 0.0) for r in traced) / n

    def count(key):
        return sum(r.count(key) for r in traced) / n

    def extra(key):
        return sum(r.extra.get(key, 0.0) for r in traced) / n

    def stat(key):
        # Simulated work: summed over the cells of one op (identical ops).
        if not traced:
            return 0.0
        total = 0.0
        for text in traced[0].digests.values():
            total += json.loads(text)["stats"].get(key, 0.0)
        return total

    if workload.name == "grid-cold":  # every op is a cold start
        import_s = extra("import_s")
        tracegen_s = spans("generate_trace.s")
        trace_io_s = spans("trace_io.self_s")
    else:
        import_s = workload.import_s
        tracegen_s = setup_spans.get("generate_trace.s", 0.0)
        trace_io_s = setup_spans.get("trace_io.self_s", 0.0)
    replay_s = spans("vectorized.replay.s")
    lower_self = spans("replay.lower_self_s")
    values = {
        "import_s": (import_s, "s"),
        "workloads.tracegen_s": (tracegen_s, "s"),
        "workloads.trace_io_s": (trace_io_s, "s"),
        "sim.build_s": (spans("make_system.s"), "s/op"),
        "sim.build_calls": (spans("make_system.calls"), "count/op"),
        "sim.replay_warmup_s": (spans("replay.warmup_s"), "s/op"),
        "sim.replay_measure_s": (spans("replay.measure_s"), "s/op"),
        "sim.kernel_self_s": (spans("vectorized.replay.self_s"), "s/op"),
        "sim.lower_self_share": (_ratio(lower_self, replay_s), "ratio"),
        "vectorized.probe_wall_s": (count("vectorized.probe_wall_s"), "s/op"),
        "vectorized.l1_apply_wall_s": (count("vectorized.l1_apply_wall_s"), "s/op"),
        "vectorized.wall_s": (count("vectorized.wall_s"), "s/op"),
    }
    for key in TIER_COUNTS:
        values[key] = (count(key), "count/op")
    values["vectorized.vector_fraction"] = (
        _ratio(count("vectorized.refs_vector"), count("vectorized.refs")), "ratio")
    applied, invalid = count("vectorized.runs_applied"), count("vectorized.runs_invalidated")
    values["vectorized.run_yield"] = (_ratio(applied, applied + invalid), "ratio")
    fast, stale = count("vectorized.l2_refs_vector"), count("vectorized.l2_flags_stale")
    values["vectorized.l2_flag_yield"] = (_ratio(fast, fast + stale), "ratio")
    for layer in ("nurapid", "nuca"):
        for method in ("access", "fill"):
            values[f"{layer}.{method}_calls"] = (spans(f"{layer}.{method}.calls"), "count/op")
            values[f"{layer}.{method}_self_s"] = (spans(f"{layer}.{method}.self_s"), "s/op")
    for key in ("accesses", "misses", "promotions", "demotions", "moves"):
        values[f"l2.{key}"] = (stat(key), "count/op")
    values["dnuca.bank_probes"] = (stat("bank_probes"), "count/op")
    values["memory.accesses"] = (extra("memory.accesses"), "count/op")
    values["executor.pool_s"] = (spans("run_cells.s"), "s/op")
    values["executor.cells"] = (extra("executor.cells"), "count/op")
    values["transport.trace_loads"] = (count("transport.trace_loads"), "count/op")
    values["transport.segment_builds"] = (count("transport.segment_builds"), "count/op")
    values["supervisor.retries"] = (count("supervisor.retries"), "count/op")
    values["service.submit_s"] = (spans("service.submit.s"), "s/op")
    values["service.wait_s"] = (spans("service.wait.s"), "s/op")
    hits = count("service.cells_memo_hits")
    values["service.cells_memo_hits"] = (hits, "count/op")
    values["service.cells_enqueued"] = (count("service.cells_enqueued"), "count/op")
    values["service.cells_failed"] = (count("service.cells_failed"), "count/op")
    values["service.memo_hit_frac"] = (
        _ratio(hits, count("service.cells_submitted")), "ratio")
    values["result_store.hits"] = (count("result_store.hits"), "count/op")
    values["result_store.writes"] = (count("result_store.writes"), "count/op")

    # Tracing must not change which kernel tier runs or what it computes.
    parity = bool(traced) and bool(plain) and all(
        r.digests == plain[0].digests
        and all(r.count(k) == plain[0].count(k) for k in TIER_COUNTS)
        for r in traced + plain
    )
    walls_t = [w for w, t, _, e in ops if t and e is None]
    walls_u = [w for w, t, _, e in ops if not t and e is None]
    overhead = (statistics.median(walls_t) - statistics.median(walls_u)
                if walls_t and walls_u else 0.0)
    values["trace.overhead_s"] = (overhead, "s/op")
    values["trace.parity"] = (1.0 if parity else 0.0, "bool")
    values["fail_frac"] = (_ratio(sum(failed), len(ops)), "ratio")
    return values, parity


def setup_probe(workload_name: str, seed: int) -> int:
    """Set up one workload in this fresh process and print its set-up time."""
    from workloads import WORKLOADS

    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir)
    pin_environment(work_dir)
    workload = WORKLOADS[workload_name](seed, work_dir)
    reference = None
    try:
        workload.setup()
        setup_s = process_age_s()
        reference = Reference(workload.cpus)
        print(json.dumps(scaled_setup(setup_s, reference)))
    finally:
        finish(workload, work_dir, reference)
    return 0


def scaled_setup(setup_s: float, reference):
    """A set-up time in host and in nominal seconds (the host reference
    timed right after the set-up)."""
    times = [reference.measure() for _ in range(SETUP_REFERENCES)]
    return {"setup_s": setup_s * scale(times), "host_setup_s": setup_s}


def probe_setups(workload_name: str, seed: int, count: int):
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def finish(workload, work_dir: str, reference=None) -> None:
    """Stop the workload and the host reference, wait for every child
    process they started (pool workers, reference helpers and
    multiprocessing's resource tracker), drop the work dir."""
    import multiprocessing
    from multiprocessing import resource_tracker

    workload.close()
    if reference is not None:
        reference.close()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join(timeout=10)
    resource_tracker._resource_tracker._stop()
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work_dir))
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run still stops its server and reaps its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir)
    pin_environment(work_dir)
    traced = bool(args.trace)
    workload = WORKLOADS[args.workload](args.seed, work_dir, traced)
    reference = None
    try:
        setup_tracer = None
        if traced:
            from tracing import Tracer

            setup_tracer = Tracer()
        try:
            workload.setup(setup_tracer)
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()
        setup_s = process_age_s()
        reference = Reference(workload.cpus)
        setup_samples = [scaled_setup(setup_s, reference)]
        ops, reference_times = run_ops(workload, args.seconds, traced, reference)
        peak_rss_kb = workload.peak_rss_kb()
        workload.close()
        references = workload.references()
        if not traced:
            setup_samples += probe_setups(args.workload, args.seed, SETUP_SAMPLES - 1)
    finally:
        finish(workload, work_dir, reference)

    import numpy

    failed, messages = check(ops, references)
    env = {
        **{k: os.environ.get(k, "") for k in PINNED_ENV},
        **workload.env,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if traced:
        values, parity = per_layer(workload, ops, setup_tracer.summary(), failed)
        if not parity:
            messages.append("traced ops differ from untraced ops in tier counts or results")
            failed = [f or t for f, (_, t, _, _) in zip(failed, ops)]
            values["fail_frac"] = (_ratio(sum(failed), len(ops)), "ratio")
        notes = {"ops": len(ops), "traced_ops": sum(1 for _, t, _, _ in ops if t)}
    else:
        values, notes = end_to_end(
            workload, ops, [s["setup_s"] for s in setup_samples], peak_rss_kb,
            scale(reference_times))
        values["fail_frac"] = (_ratio(sum(failed), len(ops)), "ratio")
        notes["host_setup_s"] = [s["host_setup_s"] for s in setup_samples]
    notes["host_reference_s"] = statistics.median(reference_times)
    names = _declared_metrics(traced)
    missing = [name for name in names if name not in values]
    if missing:
        messages.append(f"too few ops ({len(ops)}) to report {missing}")
    correct = not messages and not any(failed)

    print(f"workload {workload.name}: {_declared_why(workload.name)}")
    print("env " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, (value, unit) in values.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    for message in messages:
        print(f"FAIL {message}")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(failed),
        "metrics": {
            name: {"value": values[name][0], "unit": values[name][1]}
            for name in names if name in values
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _declared_metrics(traced: bool):
    return [m["name"] for m in _spec()["per_layer" if traced else "end_to_end"]]


def _declared_why(workload_name: str) -> str:
    return next(w["why"] for w in _spec()["workloads"] if w["name"] == workload_name)


if __name__ == "__main__":
    sys.exit(main())
