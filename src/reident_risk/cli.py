"""Command-line front end: assess, metric, and fixtures subcommands.

Reports and metrics go to stdout (or ``--out``) as UTF-8 bytes, whatever
the terminal's encoding; diagnostics go to stderr, so the two never mix on
one stream. Exit codes: 0 success, 1 I/O or parse failure, 2 validation
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures
from .engine import AssessmentError, assess
from .ingest import IngestError, load_csv, load_metadata
from .metrics import Partition
from .report import to_json, to_markdown

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2


def _diag(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _write(payload: bytes, out: str | None) -> None:
    """Write one result to the ``out`` path, or to stdout when it is None."""
    if out is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.flush()
    else:
        Path(out).write_bytes(payload)


def _write_report(report, fmt: str, out: str | None) -> None:
    if fmt == "json":
        _write(to_json(report), out)
    elif fmt == "markdown":
        _write(to_markdown(report).encode("utf-8"), out)
    elif out is None:
        _write(to_json(report) + b"\n" + to_markdown(report).encode("utf-8"), None)
    else:
        _write(to_json(report), out + ".json")
        _write(to_markdown(report).encode("utf-8"), out + ".md")


def cmd_assess(args: argparse.Namespace) -> int:
    try:
        dataset = load_csv(args.data)
        document = load_metadata(args.meta)
        report = assess(dataset, document.attributes, document.options)
        _write_report(report, args.format, args.out)
    except AssessmentError as exc:
        for problem in exc.errors:
            _diag(problem)
        return EXIT_INVALID
    except (IngestError, OSError) as exc:
        _diag(str(exc))
        return EXIT_FAILURE
    return EXIT_OK


def _split_qi(raw: str) -> list[str]:
    names = [part.strip() for part in raw.split(",")]
    return [n for n in names if n]


def cmd_metric(args: argparse.Namespace) -> int:
    if args.metric in ("dr", "ldiv") and not args.sensitive:
        _diag(f"metric {args.metric} requires --sensitive")
        return EXIT_INVALID
    try:
        dataset = load_csv(args.data)
    except (IngestError, OSError) as exc:
        _diag(str(exc))
        return EXIT_FAILURE
    try:
        partition = Partition(dataset, _split_qi(args.qi))
        if args.metric == "k":
            payload = {"k": partition.k_anonymity()}
        elif args.metric == "ldiv":
            payload = {"l": partition.l_diversity(args.sensitive)}
        else:
            result = partition.discrimination_rate(args.sensitive)
            payload = {
                "qi": list(result.qi_set),
                "sensitive": result.sensitive,
                "h_s": f"{result.h_s:.6f}",
                "h_s_given_qi": f"{result.h_s_given_qi:.6f}",
                "dr": f"{result.dr:.6f}",
                "inference": int(result.inference),
                "inference_label": result.inference.label,
            }
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        _diag(str(message))
        return EXIT_INVALID
    _write(f"{json.dumps(payload, sort_keys=True, ensure_ascii=False)}\n".encode("utf-8"), None)
    return EXIT_OK


def cmd_fixtures(args: argparse.Namespace) -> int:
    try:
        csv_path, meta_path = fixtures.write_fixture(args.name, args.dir)
    except OSError as exc:
        _diag(str(exc))
        return EXIT_FAILURE
    print(f"wrote {csv_path}", file=sys.stderr)
    print(f"wrote {meta_path}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reident-risk",
        description="Quantify the re-identification risk of an anonymized tabular dataset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_assess = sub.add_parser("assess", help="run a full assessment and emit the report")
    p_assess.add_argument("--data", required=True, help="dataset CSV (header row first)")
    p_assess.add_argument("--meta", required=True, help="attribute metadata JSON")
    p_assess.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_assess.add_argument(
        "--format", choices=("json", "markdown", "both"), default="json", help="report format"
    )
    p_assess.set_defaults(func=cmd_assess)

    p_metric = sub.add_parser("metric", help="compute a single metric for ad-hoc exploration")
    p_metric.add_argument("metric", choices=("dr", "k", "ldiv"))
    p_metric.add_argument("--data", required=True, help="dataset CSV")
    p_metric.add_argument("--qi", required=True, help="comma-separated quasi-identifier names")
    p_metric.add_argument("--sensitive", default=None, help="sensitive attribute (dr and ldiv)")
    p_metric.set_defaults(func=cmd_metric)

    p_fixtures = sub.add_parser("fixtures", help="manage the bundled example datasets")
    fix_sub = p_fixtures.add_subparsers(dest="fixtures_command", required=True)
    p_emit = fix_sub.add_parser("emit", help="write a fixture CSV and its reference metadata")
    p_emit.add_argument("name", choices=fixtures.FIXTURE_NAMES)
    p_emit.add_argument("--dir", default=".", help="target directory (default: current)")
    p_emit.set_defaults(func=cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
