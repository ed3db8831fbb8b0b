"""CLI: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean, 1 violations found, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from .config import load_config
from .core import analyze_paths, iter_python_files
from .rules import all_rule_ids


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="quacklint: engine-aware static analysis for the "
                    "QuackDB reproduction",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to analyze "
                             "(default: src/repro, else .)")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="RULE",
                        help="disable a rule id or family prefix "
                             "(repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list every rule id and exit")
    parser.add_argument("--format", choices=("text", "json", "github"),
                        default="text", dest="output_format",
                        help="output format: human-readable text (default), "
                             "a structured JSON report, or GitHub Actions "
                             "::error annotations")
    parser.add_argument("--json", action="store_const", const="json",
                        dest="output_format",
                        help="alias for --format json")
    parser.add_argument("--config", default=None, metavar="PYPROJECT",
                        help="explicit pyproject.toml with a "
                             "[tool.quacklint] table")
    parser.add_argument("--fail-on", choices=("error", "warning"),
                        default="warning", dest="fail_on",
                        help="minimum severity that fails the run: "
                             "'warning' (default) exits 1 on any finding, "
                             "'error' reports warnings but exits 0 unless "
                             "an error-severity violation was found")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule_id, description in sorted(all_rule_ids().items()):
            print(f"{rule_id}  {description}")
        return 0

    paths: List[str] = list(options.paths or [])
    if not paths:
        paths = ["src/repro"] if os.path.isdir("src/repro") else ["."]
    for path in paths:
        if not os.path.exists(path):
            print(f"quacklint: path does not exist: {path}", file=sys.stderr)
            return 2

    config = load_config(pyproject_path=options.config, start=paths[0])
    if options.disable:
        config.disabled_rules = tuple(config.disabled_rules) \
            + tuple(options.disable)

    violations = analyze_paths(paths, config)
    scanned = sum(1 for _ in iter_python_files(paths))
    errors = [v for v in violations if v.severity == "error"]
    warnings = [v for v in violations if v.severity != "error"]

    if options.output_format == "json":
        print(json.dumps({
            "violations": [violation.__dict__ for violation in violations],
            "files_scanned": scanned,
            "files_flagged": len({v.path for v in violations}),
            "violation_count": len(violations),
            "error_count": len(errors),
            "warning_count": len(warnings),
        }, indent=2))
    elif options.output_format == "github":
        # GitHub Actions workflow-command annotations: one ::error (or
        # ::warning) line per violation, surfaced inline on the PR diff.
        # Newlines/percent in the message must be URL-style escaped per
        # the Actions spec.
        for violation in violations:
            message = (violation.message.replace("%", "%25")
                       .replace("\r", "%0D").replace("\n", "%0A"))
            command = "error" if violation.severity == "error" else "warning"
            print(f"::{command} file={violation.path},line={violation.line},"
                  f"col={violation.col + 1},title={violation.rule}::"
                  f"{message}")
    else:
        for violation in violations:
            print(violation.render())
        noun = "violation" if len(violations) == 1 else "violations"
        flagged_files = len({violation.path for violation in violations})
        breakdown = f" ({len(errors)} errors, {len(warnings)} warnings)" \
            if warnings else ""
        print(f"quacklint: {len(violations)} {noun}{breakdown} in "
              f"{flagged_files} file(s) ({scanned} files scanned)")
    failing = errors if options.fail_on == "error" else violations
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
