"""Prefetching ablation (extension beyond the paper).

Adds a classic multi-stream next-line prefetcher in front of the
NuRAPID L2 and the base hierarchy.  Two questions: how much of the
remaining miss latency does prefetching recover on stream-heavy
applications, and does NuRAPID's flexible placement coexist with
prefetch fills (which, like demand fills, enter the fastest d-group
and displace a random victim)?
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import ExperimentReport, Scale, pct, run_matrix
from repro.sim.config import SystemConfig, base_config, nurapid_config

SUBSET = ["swim", "equake", "applu", "twolf"]


def with_prefetch(config: SystemConfig) -> SystemConfig:
    """``config`` with the stream prefetcher on; the name carries ``-pf``."""
    return replace(config, name=f"{config.name}-pf", prefetch=True)


def run(scale: Scale) -> ExperimentReport:
    base, nurapid = base_config(), nurapid_config()
    base_pf, nurapid_pf = with_prefetch(base), with_prefetch(nurapid)
    results = run_matrix([base, base_pf, nurapid, nurapid_pf], SUBSET, scale)
    rows = []
    for benchmark in SUBSET:
        nur_on = results[nurapid_pf.name][benchmark]
        issued = nur_on.stats["prefetch_issued"]
        useful = nur_on.stats["prefetch_useful"]
        rows.append(
            {
                "benchmark": benchmark,
                "base +pf": pct(
                    results[base_pf.name][benchmark].ipc
                    / results[base.name][benchmark].ipc
                ),
                "nurapid +pf": pct(nur_on.ipc / results[nurapid.name][benchmark].ipc),
                "pf accuracy": round(useful / issued if issued else 0.0, 2),
                "pf issued": int(issued),
            }
        )
    return ExperimentReport(
        experiment="ablation_prefetch",
        title="Stream prefetching on top of base and NuRAPID",
        paper_expectation=(
            "extension: stream-heavy apps (swim, equake) gain from "
            "prefetching on both systems; NuRAPID's flexible placement "
            "absorbs prefetch fills without displacing the hot set more "
            "than random replacement already does"
        ),
        rows=rows,
        notes=f"8 streams, degree 2, next-line; benchmarks: {', '.join(SUBSET)}",
    )
