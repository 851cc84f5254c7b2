"""Assessment result type and its JSON / Markdown renderings.

The JSON form is canonical: object keys sorted, arrays in report order,
real-valued metrics fixed to six decimal places, UTF-8 with a trailing
newline. Reports with identical content therefore serialize to identical
bytes, which makes golden-file comparison in CI meaningful. The Markdown
form mirrors the same content for human review; levels always render with
both numeral and label ("4-Critical") in both forms.

Each table is declared once as a ``_Table``: its JSON key, its rows, and per
column a JSON key, a Markdown header, a cell getter and a kind. Both encoders
render from these declarations, and the kind alone decides how a cell encodes.
The JSON text is joined from per-cell fragments in sorted-key order, with no dict tree.
Flagged records are rendered from the report's outcome table: each outcome's
cells are encoded once per call, and each record adds only its row number.
``json_parts`` and ``markdown_parts`` yield each report as text parts, the
flagged records a block at a time, so a writer holds no more than one block;
``to_json`` and ``to_markdown`` join them.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring as _string  # as json.dumps(ensure_ascii=False)
from operator import attrgetter, itemgetter

from .metrics import band
from .model import AttributeMeta, RiskLevel, SeverityLevel, global_severity


LDiversityEntry = namedtuple("LDiversityEntry", "sensitive l_value")
LDiversityEntry.__doc__ = """The distinct l-diversity ``l_value``, an int, of the
``sensitive`` attribute over the full quasi-identifier set."""

MetricsAppendix = namedtuple("MetricsAppendix", "qi_set k_anonymity l_diversity")
MetricsAppendix.__doc__ = """Raw metric values backing the levels, so a report can be
re-derived: the ``qi_set`` tuple of every quasi-identifier, its int
``k_anonymity``, and per sensitive attribute an :class:`LDiversityEntry`, in
the ``l_diversity`` tuple."""

FlaggedOutcome = namedtuple(
    "FlaggedOutcome", "attribute sensitive_value value_severity class_inference record_risk"
)
FlaggedOutcome.__doc__ = """What a flagged record shows besides its row: the sensitive
``attribute`` and ``sensitive_value``, the value's :class:`SeverityLevel`, the float
``class_inference`` and the :class:`RiskLevel` ``record_risk``. ``class_inference``
is the per-class inference score of the record's equivalence class under the
highest-exposure combination; records with the same value and score share
one outcome."""

AssessmentReport = namedtuple(
    "AssessmentReport",
    "dataset_label row_count attributes exploitability_rows overall_risk"
    " flagged_rows flagged_outcome outcomes metrics_appendix warnings",
)
AssessmentReport.__doc__ = """Each fact once: the renderers derive the severity, override and
exposure tables from ``attributes`` (a tuple of :class:`AttributeMeta` in column
order), and the risk table and the appendix's discrimination rates from the
``exploitability_rows`` tuple. ``dataset_label`` is a string, ``row_count`` an
int, ``overall_risk`` a :class:`RiskLevel`, ``metrics_appendix`` a
:class:`MetricsAppendix` and ``warnings`` a tuple of strings.

Flagged record ``j`` is row ``flagged_rows[j]`` (0-based; reports render it
1-based) showing ``outcomes[flagged_outcome[j]]``, from the ``outcomes`` tuple
of :class:`FlaggedOutcome`. Both are unsigned-int arrays, shared and not to be
mutated; renderers take any sequence of ints."""


_MARKUP = re.compile(r"[\\|*_`\[\]<>&~\r\n]")
_ESCAPED = str.maketrans({**{c: "\\" + c for c in "\\|*_`[]<>&~"}, "\r": "<br>", "\n": "<br>"})


def _escape(text: str) -> str:
    """A Markdown cell shown as text: ``_MARKUP`` characters escaped, line breaks as ``<br>``."""
    if _MARKUP.search(text) is None:
        return text
    return text.replace("\r\n", "\n").translate(_ESCAPED)


# How a cell encodes: ``json`` gives the cell's JSON text, ``markdown`` its Markdown cell text.
_Kind = namedtuple("_Kind", "json markdown")


def _array(items: Iterable[str]) -> str:
    return "[" + ",".join(items) + "]"


@lru_cache(maxsize=None, typed=True)  # typed: as IntEnums, RiskLevel(3) == SeverityLevel(3)
def _level_json(level) -> str:
    return f'{{"label":{_string(level.label)},"level":{level.value}}}'


LEVEL = _Kind(_level_json, attrgetter("display"))
NUMBER = _Kind('"{:.6f}"'.format, "{:.6f}".format)


def rate_text(rate: float) -> str:
    """``rate`` to six decimals, but never rounded up into the band above it."""
    text = f"{rate:.6f}"
    return text if band(float(text)) is band(rate) else f"{float(text) - 1e-6:.6f}"


RATE = _Kind(lambda rate: f'"{rate_text(rate)}"', rate_text)
NAMES = _Kind(lambda names: _array(map(_string, names)), lambda names: _escape("/".join(names)))
TEXT = _Kind(_string, _escape)
INT = _Kind(str, str)


# A column's JSON key, its Markdown header or None for a JSON-only column, the
# getter of its cell from a row, or None for the flagged record's row number
# (see _lines), and its _Kind.
_Column = namedtuple("_Column", "key header get kind")

# A table's JSON key, the function of a report that lists its rows, its tuple
# of _Columns, and whether its Markdown cells are bold.
_Table = namedtuple("_Table", "key rows columns bold", defaults=(False,))


def _description(row: "ExploitabilityRow") -> str:
    combo = row.combination
    return f"Re-identification risk based on {combo.exposure.display}: " + "/".join(combo.members)


ATTRIBUTE_SEVERITY = _Table(
    "attribute_severity_table",
    lambda report: [m for m in report.attributes if m.severity is not None],
    (
        _Column("attribute", "Attribute", attrgetter("name"), TEXT),
        _Column("bodily", "Bodily", attrgetter("severity.bodily"), LEVEL),
        _Column("material", "Material", attrgetter("severity.material"), LEVEL),
        _Column("moral", "Moral", attrgetter("severity.moral"), LEVEL),
        _Column("global", "Global", lambda m: global_severity(m.severity), LEVEL),
    ),
)
VALUE_SEVERITY = _Table(
    "value_severity_table",
    lambda report: [
        (m.name, value, global_severity(rating))
        for m in report.attributes
        for value, rating in m.value_severity.items()
    ],
    (
        _Column("attribute", "Attribute", itemgetter(0), TEXT),
        _Column("value", "Value", itemgetter(1), TEXT),
        _Column("severity", "Severity", itemgetter(2), LEVEL),
    ),
)
EXPOSURE = _Table(
    "exposure_table",
    lambda report: [m for m in report.attributes if m.exposure is not None],
    (
        _Column("attribute", "Attribute", attrgetter("name"), TEXT),
        _Column("exposure", "Exposure", attrgetter("exposure"), LEVEL),
    ),
)
EXPLOITABILITY = _Table(
    "exploitability_rows",
    attrgetter("exploitability_rows"),
    (
        _Column("sensitive", "Sensitive", attrgetter("sensitive"), TEXT),
        _Column("combination", "Combination", attrgetter("combination.members"), NAMES),
        _Column("origin", None, attrgetter("combination.origin.value"), TEXT),
        _Column("exposure", "Exposure", attrgetter("combination.exposure"), LEVEL),
        _Column("inference", "Inference", attrgetter("inference"), LEVEL),
        _Column("dr", None, attrgetter("dr.dr"), RATE),
        _Column("exploitability", "Exploitability", attrgetter("exploitability"), LEVEL),
    ),
)
RISK = _Table(
    "risk_rows",
    attrgetter("exploitability_rows"),
    (
        _Column("description", "Description", _description, TEXT),
        _Column("sensitive", None, attrgetter("sensitive"), TEXT),
        _Column("combination", None, attrgetter("combination.members"), NAMES),
        _Column("exploitability", "Exploitability", attrgetter("exploitability"), LEVEL),
        _Column("severity", "Severity", attrgetter("severity"), LEVEL),
        _Column("risk", "Risk Level", attrgetter("risk"), LEVEL),
    ),
)
FLAGGED = _Table(
    "flagged_records",
    attrgetter("outcomes"),
    (
        _Column("row", "Row", None, INT),
        _Column("attribute", "Attribute", attrgetter("attribute"), TEXT),
        _Column("value", "Value", attrgetter("sensitive_value"), TEXT),
        _Column("value_severity", "Severity", attrgetter("value_severity"), LEVEL),
        _Column("class_inference", "Class Inference", attrgetter("class_inference"), RATE),
        _Column("record_risk", "Record Risk", attrgetter("record_risk"), LEVEL),
    ),
    bold=True,
)
L_DIVERSITY = _Table(
    "l_diversity",
    lambda report: report.metrics_appendix.l_diversity,
    (
        _Column("l", None, attrgetter("l_value"), INT),
        _Column("sensitive", None, attrgetter("sensitive"), TEXT),
    ),
)
DISCRIMINATION_RATES = _Table(
    "discrimination_rates",
    lambda report: [row.dr for row in report.exploitability_rows],
    (
        _Column("sensitive", "Sensitive", attrgetter("sensitive"), TEXT),
        _Column("qi", "Quasi-identifiers", attrgetter("qi_set"), NAMES),
        _Column("h_s", "H(S)", attrgetter("h_s"), NUMBER),
        _Column("h_s_given_qi", "H(S|QI)", attrgetter("h_s_given_qi"), NUMBER),
        _Column("dr", "DR", attrgetter("dr"), RATE),
        _Column("inference", "Inference", attrgetter("inference"), LEVEL),
    ),
)


def _object(members: Iterable[tuple[str, str | Iterable[str]]]) -> Iterator[str]:
    """A JSON object from (key, JSON text or its parts) members, in sorted-key order."""
    lead = "{"
    for key, text in sorted(members, key=itemgetter(0)):
        yield lead + _string(key) + ":"
        yield from (text,) if isinstance(text, str) else text
        lead = ","
    yield "}"


# Flagged records a text part holds, which a writer holds as records, text and bytes at
# once. Against 256, 64 cut a seed-3 write's peak from 337 to 271 KiB on raw_unique and
# 344 to 233 KiB on kanon_bulk, whose write took 2.4 against 2.1 ms (best of 15; 3.11).
_PART_RECORDS = 64


def _lines(
    report: AssessmentReport,
    rows: list,
    cells: list[tuple[str, Callable[[object], object] | None, Callable[[object], str]]],
    start: str,
    sep: str,
    end: str,
    join: str,
) -> Iterator[str]:
    """Each row as ``start``, its cells joined by ``sep``, then ``end``; ``cells``
    holds a (label, get, encode) triple per column, in output order. The rows are
    joined by ``join`` and come as one part.

    A column without a getter is FLAGGED's row number, and ``rows`` are then the
    report's outcomes: the text before and after that column is encoded once per
    outcome, and each flagged record puts its 1-based row between the two. These
    rows come as one part per ``_PART_RECORDS`` records, none when nothing is flagged."""
    gets = [get for _, get, _ in cells]
    if None not in gets:
        yield join.join(
            start + sep.join([key + encode(get(row)) for key, get, encode in cells]) + end
            for row in rows
        )
        return
    at = gets.index(None)
    label, _, number = cells[at]
    before, after = cells[:at], cells[at + 1 :]
    heads = [
        start + "".join([key + encode(get(o)) + sep for key, get, encode in before]) + label
        for o in rows
    ]
    tails = [
        "".join([sep + key + encode(get(o)) for key, get, encode in after]) + end for o in rows
    ]
    flagged, outcome, lead = report.flagged_rows, report.flagged_outcome, ""
    for i in range(0, len(flagged), _PART_RECORDS):
        block = zip(flagged[i : i + _PART_RECORDS], outcome[i : i + _PART_RECORDS])
        yield lead + join.join([heads[o] + number(row + 1) + tails[o] for row, o in block])
        lead = join


def _json_table(table: _Table, report: AssessmentReport) -> tuple[str, Iterator[str]]:
    """The table as a (key, JSON parts) member: an array of row objects, columns sorted by key."""
    cells = [(_string(c.key) + ":", c.get, c.kind.json) for c in sorted(table.columns)]
    rows = _lines(report, table.rows(report), cells, "{", ",", "}", ",")
    return table.key, chain(["["], rows, ["]"])


def json_parts(report: AssessmentReport) -> Iterator[str]:
    """The canonical JSON text of ``to_json``, in parts."""
    tables = (ATTRIBUTE_SEVERITY, VALUE_SEVERITY, EXPOSURE, EXPLOITABILITY, RISK, FLAGGED)
    appendix_members = [
        ("qi_set", NAMES.json(report.metrics_appendix.qi_set)),
        ("k_anonymity", str(report.metrics_appendix.k_anonymity)),
        *(_json_table(table, report) for table in (L_DIVERSITY, DISCRIMINATION_RATES)),
    ]
    members = [
        ("dataset_label", _string(report.dataset_label)),
        ("row_count", str(report.row_count)),
        *(_json_table(table, report) for table in tables),
        ("overall_risk", LEVEL.json(report.overall_risk)),
        ("metrics_appendix", _object(appendix_members)),
        ("warnings", NAMES.json(report.warnings)),
    ]
    yield from _object(members)
    yield "\n"


def to_json(report: AssessmentReport) -> bytes:
    """Canonical JSON bytes: sorted keys, fixed formatting, trailing newline."""
    return "".join(json_parts(report)).encode("utf-8")


def report_to_dict(report: AssessmentReport) -> dict:
    """Plain-data form of a report: its canonical JSON, decoded."""
    return json.loads(to_json(report))


def _markdown_table(table: _Table, report: AssessmentReport) -> Iterator[str]:
    """The table's Markdown lines, or ``none`` when it has no rows, then a blank line."""
    rows = table.rows(report)
    if not rows:
        yield "none\n\n"
        return
    columns = [c for c in table.columns if c.header is not None]
    cells = [("", c.get, c.kind.markdown) for c in columns]
    start, sep, end = ("| **", "** | **", "** |") if table.bold else ("| ", " | ", " |")
    yield "| " + " | ".join(_escape(c.header) for c in columns) + " |\n"
    yield "|" + "|".join(" --- " for _ in columns) + "|\n"
    yield from _lines(report, rows, cells, start, sep, end, "\n")
    yield "\n\n"


def markdown_parts(report: AssessmentReport) -> Iterator[str]:
    """The Markdown text of ``to_markdown``, in parts."""
    appendix = report.metrics_appendix
    yield f"# Re-identification Risk Assessment: {report.dataset_label}\n\n## Summary\n\n"
    yield f"- Dataset: {report.dataset_label} ({report.row_count} rows)\n"
    yield f"- Overall risk: **{report.overall_risk.display}**\n\n## Severity\n\n"
    yield from _markdown_table(ATTRIBUTE_SEVERITY, report)
    if any(m.value_severity for m in report.attributes):
        yield "Value severity overrides:\n\n"
        yield from _markdown_table(VALUE_SEVERITY, report)
    for title, table in (
        ("Exposure", EXPOSURE),
        ("Exploitability", EXPLOITABILITY),
        ("Risk", RISK),
        ("Flagged Records", FLAGGED),
    ):
        yield f"## {title}\n\n"
        yield from _markdown_table(table, report)
    yield "## Metrics Appendix\n\n"
    yield f"- k-anonymity over {'/'.join(appendix.qi_set)}: {appendix.k_anonymity}\n"
    for e in appendix.l_diversity:
        yield f"- distinct l-diversity for {e.sensitive}: {e.l_value}\n"
    yield "\n"
    yield from _markdown_table(DISCRIMINATION_RATES, report)
    yield "## Warnings\n\n"
    yield "".join([f"- {w}\n" for w in report.warnings]) or "none\n"


def to_markdown(report: AssessmentReport) -> str:
    """Human-readable report with sections in fixed order."""
    return "".join(markdown_parts(report))
