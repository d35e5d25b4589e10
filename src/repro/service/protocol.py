"""The service wire format: config specs, grid requests, events.

Everything crossing the socket is JSON.  Configurations travel as
*specs* — a factory name plus JSON-safe options — rather than pickled
:class:`~repro.sim.config.SystemConfig` objects, so any HTTP client
(curl included) can submit work and the server never unpickles
untrusted bytes::

    {"kind": "nurapid", "options": {"n_dgroups": 8}, "engine": "vectorized"}

A grid request is the cross product of config specs and benchmarks,
with the same per-run knobs :func:`repro.sim.driver.run_suite` takes;
cells enumerate configs-outer, benchmarks-inner, exactly like
``run_suite``, so a grid's cell order matches a direct run's.

Progress flows back as NDJSON: one JSON object per line, each with an
``"event"`` discriminator (``submitted``, ``hit``, ``queued``,
``running``, ``completed``, ``failed``, ``done``) and a monotonically
increasing per-job ``"seq"`` so clients can resume a dropped stream.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.nuca.config import SearchPolicy
from repro.nurapid.config import DistanceReplacementKind, PromotionPolicy
from repro.sim.config import (
    ENGINES,
    SystemConfig,
    base_config,
    dnuca_config,
    nurapid_config,
    resolve_engine,
    sa_nuca_config,
    snuca_config,
)

PROTOCOL_VERSION = 1

#: Wire names for the shipped config factories and the JSON-safe
#: options each accepts (enum-valued options take the enum's value).
CONFIG_KINDS = ("base", "nurapid", "dnuca", "sa-nuca", "s-nuca")


def _build_nurapid(options: Dict[str, object]) -> SystemConfig:
    kwargs = dict(options)
    if "promotion" in kwargs:
        kwargs["promotion"] = PromotionPolicy(kwargs["promotion"])
    if "distance_replacement" in kwargs:
        kwargs["distance_replacement"] = DistanceReplacementKind(
            kwargs["distance_replacement"]
        )
    return nurapid_config(**kwargs)


def _build_dnuca(options: Dict[str, object]) -> SystemConfig:
    kwargs = dict(options)
    if "policy" in kwargs:
        kwargs["policy"] = SearchPolicy(kwargs["policy"])
    return dnuca_config(**kwargs)


_BUILDERS = {
    "base": lambda options: base_config(**options),
    "nurapid": _build_nurapid,
    "dnuca": _build_dnuca,
    "sa-nuca": lambda options: sa_nuca_config(**options),
    "s-nuca": lambda options: snuca_config(**options),
}


def config_spec(
    kind: str, engine: Optional[str] = None, **options: object
) -> Dict[str, object]:
    """A JSON-safe config spec (client-side convenience)."""
    if kind not in CONFIG_KINDS:
        raise ConfigurationError(
            f"unknown config kind {kind!r}; expected one of "
            f"{', '.join(CONFIG_KINDS)}"
        )
    spec: Dict[str, object] = {"kind": kind}
    if options:
        spec["options"] = options
    if engine is not None:
        spec["engine"] = engine
    return spec


def build_config(spec: Mapping[str, object]) -> SystemConfig:
    """Materialize a config spec; raises ConfigurationError on bad specs."""
    if not isinstance(spec, Mapping):
        raise ConfigurationError(f"config spec must be an object, got {spec!r}")
    kind = spec.get("kind")
    builder = _BUILDERS.get(kind)  # type: ignore[arg-type]
    if builder is None:
        raise ConfigurationError(
            f"unknown config kind {kind!r}; expected one of "
            f"{', '.join(CONFIG_KINDS)}"
        )
    options = spec.get("options", {})
    if not isinstance(options, Mapping):
        raise ConfigurationError("config spec 'options' must be an object")
    try:
        config = builder(dict(options))
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"bad options for config kind {kind!r}: {exc}"
        ) from exc
    engine = spec.get("engine")
    if engine is not None:
        if engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; expected one of "
                f"{', '.join(ENGINES)}"
            )
        config = dataclasses.replace(config, engine=engine)
    return config


@dataclass
class GridRequest:
    """One submission: a grid of cells plus scheduling identity.

    ``client`` is the fair-share identity the cells are queued (and
    quota-counted) under.  ``engine`` overrides every spec's engine;
    left None, each config resolves its own (spec engine, else the
    server's default).  ``estimate=True`` runs every cell through the
    analytical ``approx`` engine synchronously and returns those
    results inline with the submission response; ``exact`` then
    controls whether the exact cells are still scheduled behind the
    estimate (it defaults to True and is meaningless without
    ``estimate`` — a non-estimate submission always schedules).
    """

    configs: List[Dict[str, object]]
    benchmarks: List[str]
    client: str = "anon"
    n_references: int = 120_000
    seed: int = 0
    warmup_fraction: float = 0.4
    warm_set_conflict: int = 1
    prewarm: bool = True
    engine: Optional[str] = None
    telemetry: bool = False
    estimate: bool = False
    exact: bool = True
    #: Reserved for forward compatibility; echoed back verbatim.
    tag: Optional[str] = None
    _parsed: List[SystemConfig] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.configs:
            raise ConfigurationError("grid needs at least one config spec")
        if not self.benchmarks:
            raise ConfigurationError("grid needs at least one benchmark")
        if self.n_references <= 0:
            raise ConfigurationError(
                f"n_references must be positive, got {self.n_references}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if self.warm_set_conflict < 1:
            raise ConfigurationError(
                f"warm_set_conflict must be >= 1, got {self.warm_set_conflict}"
            )
        if self.engine is not None and self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{', '.join(ENGINES)}"
            )
        if not self.client or not isinstance(self.client, str):
            raise ConfigurationError("client must be a non-empty string")
        # Materialize (and thereby validate) every spec eagerly, so a
        # bad grid is rejected before any cell is admitted.
        self._parsed = [build_config(spec) for spec in self.configs]

    def resolved_configs(self, default_engine: Optional[str] = None) -> List[SystemConfig]:
        """The grid's configs with engines pinned (never None).

        Priority: the request-wide ``engine``, else the spec's own,
        else ``default_engine`` (the server's), else the library
        default — resolved once at admission so results are
        reproducible regardless of the executing worker's environment.
        """
        resolved = []
        for config in self._parsed:
            engine = self.engine or config.engine or default_engine
            resolved.append(
                dataclasses.replace(config, engine=resolve_engine(engine))
            )
        return resolved

    def cells(
        self, default_engine: Optional[str] = None
    ) -> List[Tuple[SystemConfig, str]]:
        """Grid cells in ``run_suite`` order: configs outer, benchmarks inner."""
        return [
            (config, benchmark)
            for config in self.resolved_configs(default_engine)
            for benchmark in self.benchmarks
        ]

    def to_payload(self) -> Dict[str, object]:
        payload = {
            "version": PROTOCOL_VERSION,
            "client": self.client,
            "configs": self.configs,
            "benchmarks": self.benchmarks,
            "n_references": self.n_references,
            "seed": self.seed,
            "warmup_fraction": self.warmup_fraction,
            "warm_set_conflict": self.warm_set_conflict,
            "prewarm": self.prewarm,
            "telemetry": self.telemetry,
            "estimate": self.estimate,
            "exact": self.exact,
        }
        if self.engine is not None:
            payload["engine"] = self.engine
        if self.tag is not None:
            payload["tag"] = self.tag
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "GridRequest":
        if not isinstance(payload, Mapping):
            raise ConfigurationError("grid request must be a JSON object")
        version = payload.get("version", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ConfigurationError(
                f"unsupported protocol version {version!r} "
                f"(server speaks {PROTOCOL_VERSION})"
            )
        known = {
            "client", "configs", "benchmarks", "n_references", "seed",
            "warmup_fraction", "warm_set_conflict", "prewarm", "engine",
            "telemetry", "estimate", "exact", "tag",
        }
        unknown = set(payload) - known - {"version"}
        if unknown:
            raise ConfigurationError(
                f"unknown grid request fields: {', '.join(sorted(unknown))}"
            )
        try:
            return cls(
                configs=list(payload["configs"]),  # type: ignore[arg-type]
                benchmarks=[str(b) for b in payload["benchmarks"]],  # type: ignore[union-attr]
                client=str(payload.get("client", "anon")),
                n_references=int(payload.get("n_references", 120_000)),  # type: ignore[arg-type]
                seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
                warmup_fraction=float(payload.get("warmup_fraction", 0.4)),  # type: ignore[arg-type]
                warm_set_conflict=int(payload.get("warm_set_conflict", 1)),  # type: ignore[arg-type]
                prewarm=bool(payload.get("prewarm", True)),
                engine=payload.get("engine"),  # type: ignore[arg-type]
                telemetry=bool(payload.get("telemetry", False)),
                estimate=bool(payload.get("estimate", False)),
                exact=bool(payload.get("exact", True)),
                tag=payload.get("tag"),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed grid request: {exc}") from exc


def encode_event(kind: str, seq: int, **fields: object) -> bytes:
    """One NDJSON event line (trailing newline included)."""
    body = {"event": kind, "seq": seq}
    body.update(fields)
    return (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")


def canonical_json(payload: object) -> str:
    """The byte-stable JSON encoding used for parity comparisons."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
