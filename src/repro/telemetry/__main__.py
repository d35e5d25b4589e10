"""CLI: render merged telemetry reports and summarize JSONL traces.

    python -m repro.telemetry report out/run.json store/<key>.json
    python -m repro.telemetry trace out/traces/nurapid__art__s1.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.common.errors import ReproError
from repro.telemetry.report import report_from_files
from repro.telemetry.trace import read_trace, trace_summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Render telemetry reports and trace summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="merge payloads from run and result-store JSON files and render"
    )
    report.add_argument("files", nargs="+", help="RunResult JSON, result-store entry, or raw payload")

    trace = sub.add_parser("trace", help="summarize a JSONL event trace")
    trace.add_argument("file")

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            print(report_from_files(args.files))
        else:
            events = read_trace(args.file)
            meta = next((e for e in events if e.get("kind") == "meta"), None)
            if meta is not None:
                print(
                    f"events seen={meta.get('seen')} kept={meta.get('kept')} "
                    f"dropped={meta.get('dropped')} sample={meta.get('sample')} "
                    f"ring={meta.get('ring')}"
                )
            for kind, count in trace_summary(events).items():
                print(f"{kind:<14} {count}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
