"""Command-line entry points for the simulation service.

Start a server::

    python -m repro.service serve --store /tmp/repro-store --port 8753 \\
        --jobs 4 --quota 256

Submit a grid from the shell (any HTTP client works; this one wraps
:class:`repro.service.client.ServiceClient`)::

    python -m repro.service submit --url http://127.0.0.1:8753 \\
        --config nurapid --config s-nuca --benchmark gzip --benchmark gcc \\
        --refs 60000 --client alice --watch

    # the same submission via curl:
    curl -s http://127.0.0.1:8753/v1/jobs -d '{
        "configs": [{"kind": "nurapid"}, {"kind": "s-nuca"}],
        "benchmarks": ["gzip", "gcc"],
        "n_references": 60000, "client": "alice"}'

Inspect a running server::

    python -m repro.service stats --url http://127.0.0.1:8753
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from repro.service.client import ServiceClient
from repro.service.protocol import CONFIG_KINDS, GridRequest, config_spec
from repro.service.server import ServerConfig, SimulationServer
from repro.sim.config import ENGINES


def _serve(args: argparse.Namespace) -> int:
    config = ServerConfig(
        store_dir=args.store,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        quota=args.quota,
        quantum=args.quantum,
        max_entries=args.max_entries,
        trace_cache_dir=args.trace_cache,
        default_engine=args.engine,
        cell_timeout_s=args.cell_timeout,
    )

    async def main() -> None:
        server = SimulationServer(config)
        await server.start()
        print(
            f"repro.service listening on http://{config.host}:{server.port} "
            f"(store: {config.store_dir}, jobs: {config.jobs})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def _submit(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    request = GridRequest(
        configs=[config_spec(kind) for kind in args.config],
        benchmarks=args.benchmark,
        client=args.client,
        n_references=args.refs,
        seed=args.seed,
        warmup_fraction=args.warmup,
        engine=args.engine,
        telemetry=args.telemetry,
    )
    submission = client.submit(request)
    print(json.dumps(submission, indent=2, sort_keys=True))
    if args.watch and not submission.get("done"):
        for event in client.events(str(submission["job"])):
            print(json.dumps(event, sort_keys=True), flush=True)
    return 0


def _stats(args: argparse.Namespace) -> int:
    print(json.dumps(ServiceClient(args.url).stats(), indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Simulation-as-a-service: serve, submit, inspect.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run a job server")
    serve.add_argument("--store", required=True, help="result store directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8753)
    serve.add_argument("--jobs", type=int, default=2,
                       help="worker processes executing cells")
    serve.add_argument("--quota", type=int, default=256,
                       help="max queued cells per client")
    serve.add_argument("--quantum", type=float, default=120_000.0,
                       help="DRR refill per visit (reference-count units)")
    serve.add_argument("--max-entries", type=int, default=None,
                       help="store eviction bound (default: unbounded)")
    serve.add_argument("--trace-cache", default=None,
                       help="trace cache directory (default: <store>/traces)")
    serve.add_argument("--engine", choices=ENGINES, default=None,
                       help="engine for requests that name none")
    serve.add_argument("--cell-timeout", type=float, default=None,
                       help="per-attempt cell deadline in seconds; a worker "
                       "past it is killed and the cell retried")
    serve.set_defaults(handler=_serve)

    submit = commands.add_parser("submit", help="submit a grid")
    submit.add_argument("--url", default="http://127.0.0.1:8753")
    submit.add_argument("--config", action="append", required=True,
                        choices=CONFIG_KINDS,
                        help="config kind; repeat for a grid")
    submit.add_argument("--benchmark", action="append", required=True,
                        help="benchmark name; repeat for a grid")
    submit.add_argument("--client", default="cli")
    submit.add_argument("--refs", type=int, default=120_000)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--warmup", type=float, default=0.4)
    submit.add_argument("--engine", choices=ENGINES, default=None)
    submit.add_argument("--telemetry", action="store_true")
    submit.add_argument("--watch", action="store_true",
                        help="stream NDJSON events until done")
    submit.set_defaults(handler=_submit)

    stats = commands.add_parser("stats", help="server statistics")
    stats.add_argument("--url", default="http://127.0.0.1:8753")
    stats.set_defaults(handler=_stats)

    args = parser.parse_args(argv)
    if args.command == "serve":
        for flag, value in (
            ("--jobs", args.jobs),
            ("--quota", args.quota),
            ("--quantum", args.quantum),
            ("--max-entries", args.max_entries),
            ("--cell-timeout", args.cell_timeout),
        ):
            if value is not None and not value > 0:
                serve.error(f"{flag} must be positive, got {value}")
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
