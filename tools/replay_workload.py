#!/usr/bin/env python
"""Replay a captured workload (JSONL) against a fresh QueryServer.

Capture served traffic with ``PRAGMA capture_enabled``, then replay it::

    with repro.serve() as server, server.session("etl") as session:
        session.execute("PRAGMA capture_path='capture.jsonl'")
        session.execute("PRAGMA capture_enabled=1")
        ...                                 # the statements to record
        session.execute("PRAGMA capture_enabled=0")

    PYTHONPATH=src python tools/replay_workload.py --input capture.jsonl \
        --strict --output replay_report.json

Every captured statement is re-executed in file order on a session of the
same name; row counts and error outcomes are compared against the recorded
run.  ``--speed recorded`` honors the captured inter-statement gaps (for
load-shape reproduction); the default ``max`` replays as fast as possible
(for regression latency measurement).  The JSON summary has a ``serving``
latency section and a ``replay`` section with the match/mismatch tally.
``--strict`` exits non-zero on any mismatch -- a capture of serial
sessions is deterministic and must replay exactly; concurrent captures
interleave writes and are compared best-effort.
"""

import argparse
import json
import sys

from repro import sanitizer
from repro.server import replay_workload


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Replay a captured JSONL workload against a fresh server")
    parser.add_argument("--input", required=True,
                        help="capture file written under PRAGMA "
                             "capture_enabled (path from capture_path)")
    parser.add_argument("--speed", choices=("max", "recorded"), default="max",
                        help="'max' replays back-to-back; 'recorded' sleeps "
                             "to reproduce the captured inter-statement gaps")
    parser.add_argument("--max-concurrent-queries", type=int, default=8,
                        help="admission-controller concurrency (default 8)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero if any statement's row count or "
                             "error outcome differs from the capture")
    parser.add_argument("--output", default=None,
                        help="write the JSON summary to this path")
    args = parser.parse_args(argv)

    config = {"max_concurrent_queries": args.max_concurrent_queries}
    report = replay_workload(args.input, speed=args.speed, config=config)
    serving = report["serving"]
    replay = report["replay"]

    print(f"replayed {replay['statements']} statements from "
          f"{replay['source']} at speed={replay['speed']}")
    print(f"sessions={serving['sessions']} errors={serving['errors']} "
          f"p50={serving['p50_ms']:.3f}ms p99={serving['p99_ms']:.3f}ms "
          f"throughput={serving['statements_per_second']:.0f} stmt/s")
    print(f"matches={replay['matches']} mismatches={replay['mismatches']}")
    for sample in replay["mismatch_samples"]:
        print(f"mismatch: {sample}", file=sys.stderr)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.output}")

    if sanitizer.enabled():
        sanitizer.assert_clean()
        print("sanitizer: clean")

    return 1 if (args.strict and replay["mismatches"]) else 0


if __name__ == "__main__":
    sys.exit(main())
