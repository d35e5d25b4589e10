"""The synthetic SPEC2K suite (Table 3).

Each profile pairs the paper's published characterization (base IPC
and L2 accesses per kilo-instruction; cells the scan lost are
reconstructed from the SPEC2K literature and flagged in
EXPERIMENTS.md) with the generator shape that reproduces it: region
sizes, traffic shares, popularity skew, and core-model parameters.

The *warm* region is each application's contended working set — its
size relative to the fastest d-group (2 MB in the primary 4-d-group
NuRAPID) is what differentiates the 2/4/8-d-group results of §5.3.2,
so profiles place it between ~0.7 and ~3 MB across the suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.common.errors import ConfigurationError

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class BenchmarkProfile:
    """Generator + core-model parameters for one application."""

    name: str
    suite: str  # "FP" or "Int"
    load_class: str  # "high" or "low"
    #: Table 3 targets (measured on the base system by the table3
    #: experiment; these are the paper's values for comparison).
    table3_ipc: float
    table3_l2_apki: float
    #: Memory references per instruction presented to the L1.
    mem_fraction: float
    #: Region sizes (bytes).
    hot_bytes: int
    warm_bytes: int
    bulk_bytes: int
    #: Shares of beyond-L1 traffic (with l2hot_share, must sum to 1).
    warm_share: float
    bulk_share: float
    stream_share: float
    #: Zipf exponent for bulk-region popularity (higher = more skew).
    zipf_alpha: float
    write_fraction: float
    stream_stride: int
    #: Core model: IPC when all references hit the L1, exposed fraction
    #: of beyond-L1 latency, branch mix, and mispredict rate.
    core_ipc: float
    exposure: float
    branch_fraction: float
    mispredict_rate: float
    #: Persistent hot tier: bigger than the L1, smaller than the base
    #: L2, reused heavily for the whole run with no drift.  This is the
    #: traffic a 1 MB L2 serves at 14 cycles, D-NUCA bubbles into its
    #: fastest banks, and demotion-only placement strands (§2.4.1).
    l2hot_bytes: int = 0
    l2hot_share: float = 0.0
    #: Warm traffic splits into a concentrated *head* — a window of
    #: ``warm_head_window`` of the region receiving ``warm_head_share``
    #: of the warm accesses — and a uniform body over the whole region.
    #: Every ``warm_drift_period`` references the head window slides by
    #: ``warm_drift_step`` of the region: the newly hot blocks are
    #: still cache-resident (so miss rates are unaffected) but, under
    #: demotion-only placement, stranded in slow d-groups — the §2.4.1
    #: "stuck block" phenomenon promotion policies repair.
    warm_head_share: float = 0.65
    warm_head_window: float = 0.06
    warm_drift_period: int = 25_000
    warm_drift_step: float = 0.02
    #: Concentrate the warm region into every n-th L2 set (hot sets).
    warm_set_conflict: int = 1
    #: Popularity skew within the warm region; low values spread the
    #: traffic over the whole region (effective working set ~= size).
    warm_zipf_alpha: float = 0.25
    #: Fraction of this application's lines that compress (FPC/BDI
    #: style); the compressed-NuRAPID variant draws per-line
    #: compressibility against this share.  Integer codes compress
    #: readily (small immediates, zero runs) while FP data is dense,
    #: so Int profiles sit higher.
    compressibility: float = 0.65

    def __post_init__(self) -> None:
        shares = (
            self.warm_share + self.bulk_share + self.stream_share + self.l2hot_share
        )
        if abs(shares - 1.0) > 1e-9:
            raise ConfigurationError(
                f"{self.name}: beyond-L1 shares sum to {shares}, expected 1"
            )
        if self.l2hot_share > 0 and self.l2hot_bytes <= 0:
            raise ConfigurationError(f"{self.name}: l2hot traffic needs a region size")
        if min(self.warm_share, self.bulk_share, self.stream_share, self.l2hot_share) < 0:
            raise ConfigurationError(f"{self.name}: traffic shares must be non-negative")
        if not 0.0 < self.mem_fraction < 1.0:
            raise ConfigurationError(f"{self.name}: mem_fraction out of range")
        if min(self.hot_bytes, self.warm_bytes, self.bulk_bytes) <= 0:
            raise ConfigurationError(f"{self.name}: region sizes must be positive")
        if self.stream_stride <= 0:
            raise ConfigurationError(f"{self.name}: stream stride must be positive")
        if not 0.0 <= self.compressibility <= 1.0:
            raise ConfigurationError(f"{self.name}: compressibility out of range")
        if self.warm_set_conflict < 1:
            raise ConfigurationError(
                f"{self.name}: warm_set_conflict must be >= 1, "
                f"got {self.warm_set_conflict}"
            )

    @property
    def beyond_l1_fraction(self) -> float:
        """Fraction of references targeted past the L1 (drives L2 APKI)."""
        refs_per_ki = self.mem_fraction * 1000.0
        return min(0.95, self.table3_l2_apki / refs_per_ki)

    @property
    def is_high_load(self) -> bool:
        return self.load_class == "high"


def _p(**kwargs) -> BenchmarkProfile:
    return BenchmarkProfile(**kwargs)


#: The 15-application suite.  High-load applications have substantial
#: lower-level cache activity; low-load ones mostly live in the L1.
SPEC2K_SUITE: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in [
        _p(name="applu", suite="FP", load_class="high", table3_ipc=0.9,
           table3_l2_apki=42.0, mem_fraction=0.36, hot_bytes=24 * KB,
           warm_bytes=1900 * KB, bulk_bytes=10 * MB, l2hot_bytes=192 * KB, l2hot_share=0.45,
           warm_share=0.17,
           bulk_share=0.26, stream_share=0.12, zipf_alpha=0.9,
           write_fraction=0.28, stream_stride=64, core_ipc=3.2,
           exposure=0.62, branch_fraction=0.06, mispredict_rate=0.02),
        _p(name="apsi", suite="FP", load_class="high", table3_ipc=1.1,
           table3_l2_apki=25.0, mem_fraction=0.34, hot_bytes=24 * KB,
           warm_bytes=1800 * KB, bulk_bytes=8 * MB, l2hot_bytes=160 * KB, l2hot_share=0.45,
           warm_share=0.2,
           bulk_share=0.25, stream_share=0.1, zipf_alpha=1.0,
           write_fraction=0.30, stream_stride=64, core_ipc=3.4,
           exposure=0.58, branch_fraction=0.08, mispredict_rate=0.03,
           warm_set_conflict=2),
        _p(name="art", suite="FP", load_class="high", table3_ipc=0.5,
           table3_l2_apki=37.0, mem_fraction=0.36, hot_bytes=24 * KB,
           warm_bytes=1800 * KB, bulk_bytes=3 * MB, l2hot_bytes=256 * KB, l2hot_share=0.42,
           warm_share=0.38,
           bulk_share=0.16, stream_share=0.04, zipf_alpha=0.7,
           write_fraction=0.18, stream_stride=64, core_ipc=2.6,
           exposure=0.75, branch_fraction=0.10, mispredict_rate=0.04,
           warm_set_conflict=3, compressibility=0.52),
        _p(name="bzip2", suite="Int", load_class="high", table3_ipc=1.2,
           table3_l2_apki=20.0, mem_fraction=0.33, hot_bytes=28 * KB,
           warm_bytes=1500 * KB, bulk_bytes=7 * MB, l2hot_bytes=160 * KB, l2hot_share=0.45,
           warm_share=0.17,
           bulk_share=0.28, stream_share=0.1, zipf_alpha=1.1,
           write_fraction=0.32, stream_stride=32, core_ipc=3.3,
           exposure=0.55, branch_fraction=0.14, mispredict_rate=0.06,
           warm_set_conflict=2, compressibility=0.35),
        _p(name="equake", suite="FP", load_class="high", table3_ipc=0.7,
           table3_l2_apki=39.0, mem_fraction=0.38, hot_bytes=20 * KB,
           warm_bytes=1100 * KB, bulk_bytes=8 * MB, l2hot_bytes=192 * KB, l2hot_share=0.42,
           warm_share=0.2,
           bulk_share=0.27, stream_share=0.11, zipf_alpha=0.62,
           write_fraction=0.22, stream_stride=64, core_ipc=3.0,
           exposure=0.70, branch_fraction=0.08, mispredict_rate=0.03),
        _p(name="galgel", suite="FP", load_class="high", table3_ipc=0.9,
           table3_l2_apki=28.0, mem_fraction=0.37, hot_bytes=24 * KB,
           warm_bytes=1000 * KB, bulk_bytes=5 * MB, l2hot_bytes=160 * KB, l2hot_share=0.45,
           warm_share=0.2,
           bulk_share=0.28, stream_share=0.07, zipf_alpha=0.6,
           write_fraction=0.24, stream_stride=64, core_ipc=3.1,
           exposure=0.60, branch_fraction=0.07, mispredict_rate=0.02,
           warm_set_conflict=2),
        _p(name="mcf", suite="Int", load_class="high", table3_ipc=0.2,
           table3_l2_apki=60.0, mem_fraction=0.38, hot_bytes=16 * KB,
           warm_bytes=2600 * KB, bulk_bytes=24 * MB, l2hot_bytes=224 * KB, l2hot_share=0.28,
           warm_share=0.17,
           bulk_share=0.45, stream_share=0.1, zipf_alpha=0.75,
           write_fraction=0.14, stream_stride=128, core_ipc=2.2,
           exposure=0.75, branch_fraction=0.18, mispredict_rate=0.08,
           compressibility=0.78),
        _p(name="mgrid", suite="FP", load_class="high", table3_ipc=0.8,
           table3_l2_apki=30.0, mem_fraction=0.37, hot_bytes=24 * KB,
           warm_bytes=1800 * KB, bulk_bytes=9 * MB, l2hot_bytes=192 * KB, l2hot_share=0.45,
           warm_share=0.17,
           bulk_share=0.27, stream_share=0.11, zipf_alpha=0.9,
           write_fraction=0.26, stream_stride=64, core_ipc=3.1,
           exposure=0.64, branch_fraction=0.05, mispredict_rate=0.02),
        _p(name="parser", suite="Int", load_class="high", table3_ipc=0.9,
           table3_l2_apki=14.0, mem_fraction=0.33, hot_bytes=26 * KB,
           warm_bytes=1400 * KB, bulk_bytes=5 * MB, l2hot_bytes=128 * KB, l2hot_share=0.45,
           warm_share=0.18,
           bulk_share=0.29, stream_share=0.08, zipf_alpha=1.05,
           write_fraction=0.30, stream_stride=32, core_ipc=2.8,
           exposure=0.58, branch_fraction=0.17, mispredict_rate=0.07,
           warm_set_conflict=2),
        _p(name="swim", suite="FP", load_class="high", table3_ipc=0.4,
           table3_l2_apki=17.0, mem_fraction=0.37, hot_bytes=20 * KB,
           warm_bytes=2200 * KB, bulk_bytes=14 * MB, l2hot_bytes=192 * KB, l2hot_share=0.35,
           warm_share=0.18,
           bulk_share=0.27, stream_share=0.2, zipf_alpha=0.8,
           write_fraction=0.30, stream_stride=64, core_ipc=2.7,
           exposure=0.75, branch_fraction=0.04, mispredict_rate=0.01),
        _p(name="twolf", suite="Int", load_class="high", table3_ipc=0.8,
           table3_l2_apki=18.0, mem_fraction=0.34, hot_bytes=24 * KB,
           warm_bytes=950 * KB, bulk_bytes=4 * MB, l2hot_bytes=144 * KB, l2hot_share=0.45,
           warm_share=0.2,
           bulk_share=0.29, stream_share=0.06, zipf_alpha=0.6,
           write_fraction=0.26, stream_stride=32, core_ipc=2.9,
           exposure=0.56, branch_fraction=0.16, mispredict_rate=0.07,
           warm_set_conflict=2, compressibility=0.74),
        _p(name="vpr", suite="Int", load_class="high", table3_ipc=0.9,
           table3_l2_apki=16.0, mem_fraction=0.34, hot_bytes=24 * KB,
           warm_bytes=1600 * KB, bulk_bytes=5 * MB, l2hot_bytes=144 * KB, l2hot_share=0.45,
           warm_share=0.19,
           bulk_share=0.28, stream_share=0.08, zipf_alpha=1.0,
           write_fraction=0.24, stream_stride=32, core_ipc=2.9,
           exposure=0.57, branch_fraction=0.15, mispredict_rate=0.06,
           warm_set_conflict=2),
        _p(name="gcc", suite="Int", load_class="low", table3_ipc=1.4,
           table3_l2_apki=6.0, mem_fraction=0.32, hot_bytes=28 * KB,
           warm_bytes=700 * KB, bulk_bytes=1536 * KB, l2hot_bytes=128 * KB, l2hot_share=0.45,
           warm_share=0.19,
           bulk_share=0.26, stream_share=0.1, zipf_alpha=1.1,
           write_fraction=0.30, stream_stride=32, core_ipc=3.0,
           exposure=0.50, branch_fraction=0.18, mispredict_rate=0.05),
        _p(name="mesa", suite="FP", load_class="low", table3_ipc=1.6,
           table3_l2_apki=4.0, mem_fraction=0.33, hot_bytes=28 * KB,
           warm_bytes=600 * KB, bulk_bytes=1 * MB, l2hot_bytes=112 * KB, l2hot_share=0.45,
           warm_share=0.2,
           bulk_share=0.25, stream_share=0.1, zipf_alpha=1.1,
           write_fraction=0.28, stream_stride=64, core_ipc=3.4,
           exposure=0.50, branch_fraction=0.10, mispredict_rate=0.03),
        _p(name="wupwise", suite="FP", load_class="low", table3_ipc=1.5,
           table3_l2_apki=5.0, mem_fraction=0.34, hot_bytes=28 * KB,
           warm_bytes=700 * KB, bulk_bytes=2 * MB, l2hot_bytes=128 * KB, l2hot_share=0.45,
           warm_share=0.18,
           bulk_share=0.27, stream_share=0.1, zipf_alpha=0.65,
           write_fraction=0.26, stream_stride=64, core_ipc=3.5,
           exposure=0.52, branch_fraction=0.08, mispredict_rate=0.02),
    ]
}


def get_benchmark(name: str) -> BenchmarkProfile:
    try:
        return SPEC2K_SUITE[name]
    except KeyError:
        known = ", ".join(sorted(SPEC2K_SUITE))
        raise ConfigurationError(f"unknown benchmark {name!r}; known: {known}") from None


def suite_names() -> List[str]:
    """All benchmark names in the paper's figure order (alphabetical)."""
    return sorted(SPEC2K_SUITE)


def high_load_names() -> List[str]:
    return [n for n in suite_names() if SPEC2K_SUITE[n].is_high_load]


def low_load_names() -> List[str]:
    return [n for n in suite_names() if not SPEC2K_SUITE[n].is_high_load]
