"""Command-line front end: assess, metric, and fixtures subcommands.

Reports and metrics go to stdout (or ``--out``) as UTF-8 bytes, whatever
the terminal's encoding, a report part by part as it is rendered;
diagnostics go to stderr, so the two never mix on one stream. Exit codes: 0 success, 1 I/O or parse failure, 2 validation
errors.

A run builds only the parser of the command its first argument names,
or all three when that names none; help and errors read the same either
way. ``assess`` and ``metric`` never load the fixtures module.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections.abc import Iterable
from contextlib import nullcontext
from itertools import chain

from .engine import AssessmentError, assess
from .ingest import IngestError, load_csv, load_metadata
from .metrics import Partition
from .report import json_parts, markdown_parts, rate_text

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2


def _diag(message: str) -> None:
    # A file name that did not decode holds lone surrogates: show them escaped.
    print("error:", message.encode("utf-8", "backslashreplace").decode("utf-8"), file=sys.stderr)


def _write(parts: Iterable[str], out: str | None) -> None:
    """Write one result to the ``out`` path, or to stdout when it is None,
    encoding and writing each text part as it is produced."""
    with nullcontext(sys.stdout.buffer) if out is None else open(out, "wb") as stream:
        for part in parts:
            stream.write(part.encode("utf-8"))
        stream.flush()


def _write_report(report, fmt: str, out: str | None) -> None:
    if fmt != "both":
        _write((json_parts if fmt == "json" else markdown_parts)(report), out)
    elif out is None:
        _write(chain(json_parts(report), ["\n"], markdown_parts(report)), None)
    else:
        _write(json_parts(report), out + ".json")
        _write(markdown_parts(report), out + ".md")


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
    if "" in names:
        raise ValueError(f"--qi: empty attribute name in {raw!r}")
    return names


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
        if args.sensitive is not None and args.sensitive not in dataset.columns:
            raise KeyError(f"unknown attribute {args.sensitive!r}")
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
                "dr": rate_text(result.dr),
                "inference": int(result.inference),
                "inference_label": result.inference.label,
            }
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        _diag(str(message))
        return EXIT_INVALID
    try:
        _write([json.dumps(payload, sort_keys=True, ensure_ascii=False), "\n"], None)
    except OSError as exc:
        _diag(str(exc))
        return EXIT_FAILURE
    return EXIT_OK


def cmd_fixtures(args: argparse.Namespace) -> int:
    from .fixtures import write_fixture

    try:
        csv_path, meta_path = write_fixture(args.name, args.dir)
    except OSError as exc:
        _diag(str(exc))
        return EXIT_FAILURE
    print(f"wrote {csv_path}", file=sys.stderr)
    print(f"wrote {meta_path}", file=sys.stderr)
    return EXIT_OK


def _assess_arguments(p_assess: argparse.ArgumentParser) -> None:
    p_assess.add_argument("--data", required=True, help="dataset CSV (header row first)")
    p_assess.add_argument("--meta", required=True, help="attribute metadata JSON")
    p_assess.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_assess.add_argument(
        "--format", choices=("json", "markdown", "both"), default="json", help="report format"
    )
    p_assess.set_defaults(func=cmd_assess)


def _metric_arguments(p_metric: argparse.ArgumentParser) -> None:
    p_metric.add_argument("metric", choices=("dr", "k", "ldiv"))
    p_metric.add_argument("--data", required=True, help="dataset CSV")
    p_metric.add_argument("--qi", required=True, help="comma-separated quasi-identifier names")
    p_metric.add_argument("--sensitive", default=None, help="sensitive attribute (dr and ldiv)")
    p_metric.set_defaults(func=cmd_metric)


def _fixtures_arguments(p_fixtures: argparse.ArgumentParser) -> None:
    from .fixtures import FIXTURE_NAMES

    fix_sub = p_fixtures.add_subparsers(dest="fixtures_command", required=True)
    p_emit = fix_sub.add_parser("emit", help="write a fixture CSV and its reference metadata")
    p_emit.add_argument("name", choices=FIXTURE_NAMES)
    p_emit.add_argument("--dir", default=".", help="target directory (default: current)")
    p_emit.set_defaults(func=cmd_fixtures)


# Per command, its help line and the function that adds its arguments.
COMMANDS = {
    "assess": ("run a full assessment and emit the report", _assess_arguments),
    "metric": ("compute a single metric for ad-hoc exploration", _metric_arguments),
    "fixtures": ("manage the bundled example datasets", _fixtures_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the sub-parser of ``command`` only, or of every
    command when ``command`` names none; both write the same text."""
    parser = argparse.ArgumentParser(
        prog="reident-risk",
        description="Quantify the re-identification risk of an anonymized tabular dataset.",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # One sub-parser would show as "{assess}" in the usage line. All three
    # leave metavar unset, so that an unknown command is "argument command".
    metavar = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, add_arguments = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The parsers hold reference cycles. Built with the collector off, all
    # of them stay in the youngest generation, so collecting that one alone
    # frees them before the run, wherever the collector's counts stood.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    finally:
        gc.collect(0)
        if enabled:
            gc.enable()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
