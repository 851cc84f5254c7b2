"""Report serialization: canonical JSON, Markdown layout, golden files."""

import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qi, sens
from reident_risk import engine, fixtures
from reident_risk.engine import AssessmentOptions, assess
from reident_risk.metrics import band
from reident_risk.model import Dataset, RiskLevel, SeverityLevel, typecode
from reident_risk.report import DISCRIMINATION_RATES, EXPLOITABILITY, FLAGGED, LEVEL
from reident_risk.report import report_to_dict, to_json, to_markdown

GOLDEN_DIR = Path(__file__).parent / "golden"

MILD_MARKDOWN = """\
# Re-identification Risk Assessment: mild

## Summary

- Dataset: mild (3 rows)
- Overall risk: **1-Low**

## Severity

| Attribute | Bodily | Material | Moral | Global |
| --- | --- | --- | --- | --- |
| s | 1-Negligible | 1-Negligible | 1-Negligible | 1-Negligible |

## Exposure

| Attribute | Exposure |
| --- | --- |
| q | 1-IR |

## Exploitability

| Sensitive | Combination | Exposure | Inference | Exploitability |
| --- | --- | --- | --- | --- |
| s | q | 1-IR | 4-Critical | 2-Difficult |

## Risk

| Description | Exploitability | Severity | Risk Level |
| --- | --- | --- | --- |
| Re-identification risk based on 1-IR: q | 2-Difficult | 1-Negligible | 1-Low |

## Flagged Records

none

## Metrics Appendix

- k-anonymity over q: 1
- distinct l-diversity for s: 1

| Sensitive | Quasi-identifiers | H(S) | H(S\\|QI) | DR | Inference |
| --- | --- | --- | --- | --- | --- |
| s | q | 0.918296 | 0.000000 | 1.000000 | 4-Critical |

## Warnings

none
"""

MILD_JSON = (
    b'{"attribute_severity_table":[{"attribute":"s","bodily":{"label":"Negligible","level":1},'
    b'"global":{"label":"Negligible","level":1},"material":{"label":"Negligible","level":1},'
    b'"moral":{"label":"Negligible","level":1}}],"dataset_label":"mild",'
    b'"exploitability_rows":[{"combination":["q"],"dr":"1.000000",'
    b'"exploitability":{"label":"Difficult","level":2},"exposure":{"label":"IR","level":1},'
    b'"inference":{"label":"Critical","level":4},"origin":"individual","sensitive":"s"}],'
    b'"exposure_table":[{"attribute":"q","exposure":{"label":"IR","level":1}}],'
    b'"flagged_records":[],"metrics_appendix":{"discrimination_rates":[{"dr":"1.000000",'
    b'"h_s":"0.918296","h_s_given_qi":"0.000000","inference":{"label":"Critical","level":4},'
    b'"qi":["q"],"sensitive":"s"}],"k_anonymity":1,"l_diversity":[{"l":1,"sensitive":"s"}],'
    b'"qi_set":["q"]},"overall_risk":{"label":"Low","level":1},'
    b'"risk_rows":[{"combination":["q"],"description":"Re-identification risk based on 1-IR: q",'
    b'"exploitability":{"label":"Difficult","level":2},"risk":{"label":"Low","level":1},'
    b'"sensitive":"s","severity":{"label":"Negligible","level":1}}],"row_count":3,'
    b'"value_severity_table":[],"warnings":[]}\n'
)


def _cell_count(line: str) -> int:
    """Cells in a Markdown table line: a backslash escapes the next character,
    and every other ``|`` between the outer pipes separates two cells."""
    count, escaped = 1, False
    for char in line[1:-1]:
        if escaped:
            escaped = False
        elif char == "\\":
            escaped = True
        elif char == "|":
            count += 1
    return count


def _read_cells(line: str) -> list[str]:
    """The cells of a Markdown table line read back as text: a backslash escapes
    the next character, ``<br>`` is a line break, and no markup may be left."""
    cells, cell = [], ""
    chars = iter(line.replace("<br>", "\n")[1:-1])
    for char in chars:
        if char == "\\":
            cell += next(chars)
        elif char == "|":
            cells.append(cell.strip(" "))
            cell = ""
        else:
            assert char not in "*_`[]<>&~", line
            cell += char
    return [*cells, cell.strip(" ")]


def _pipes_report():
    """Names and flagged values holding ``|``, a backslash, a line break and
    inline Markdown or HTML."""
    values = ("a|b", "c\\|d", "e\nf", "<img src=x>", "**x", "[a](b)", "`c`_~&amp;")
    dataset = Dataset(
        attributes=("zip|code", "dx|<b>code</b>"),
        rows=(
            ("1|2", values[0]),
            ("1|2", values[1]),
            ("3", values[2]),
            ("3", "g"),
            ("*4*", values[3]),
            ("*4*", values[4]),
            ("_5_", values[5]),
            ("_5_", values[6]),
        ),
        source_label="pipes",
    )
    overrides = dict.fromkeys(values, (4, 4, 4))
    report = assess(dataset, [qi("zip|code", "EE"), sens("dx|<b>code</b>", (1, 1, 1), overrides)])
    assert len(report.flagged_rows) == 7
    return report


# Characters JSON must escape or may pass through: quote, backslash, every C0
# control, DEL, the two JavaScript line separators, non-ASCII and non-BMP.
_TRICKY = st.text(
    alphabet=st.sampled_from(
        ['"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029"]
        + ["é", "中", "\U0001f600", "a"]
    ),
    max_size=6,
)


@st.composite
def _drawn_reports(draw):
    """A report whose label, attribute names, cells, overrides and notes are
    drawn strings. Names are wrapped in letters so stripping leaves them whole."""
    q_name, s_name = f"q{draw(_TRICKY)}q", f"s{draw(_TRICKY)}s"
    rows = draw(st.lists(st.tuples(_TRICKY, _TRICKY), min_size=2, max_size=6))
    # Overrides flag the records holding them; unused ones become warnings.
    overrides = draw(st.lists(st.sampled_from([v for _, v in rows]) | _TRICKY, max_size=3))
    dataset = Dataset(attributes=(q_name, s_name), rows=rows, source_label=draw(_TRICKY))
    meta = [qi(q_name, 3), sens(s_name, (1, 2, 1), dict.fromkeys(overrides, (3, 4, 1)))]
    options = AssessmentOptions(notes=draw(st.lists(_TRICKY, max_size=3)))
    return assess(dataset, meta, options)


@pytest.fixture(scope="module")
def initial_report(initial, reference_meta):
    return assess(initial, reference_meta.attributes, reference_meta.options)


class TestJson:
    def test_bytes_utf8_trailing_newline(self, hipaa_report):
        payload = to_json(hipaa_report)
        assert isinstance(payload, bytes)
        assert payload.endswith(b"\n")
        assert not payload.endswith(b"\n\n")
        json.loads(payload.decode("utf-8"))

    def test_keys_sorted(self, hipaa_report):
        text = to_json(hipaa_report).decode("utf-8")
        document = json.loads(text)
        assert text == json.dumps(
            document, sort_keys=True, ensure_ascii=False, separators=(",", ":")
        ) + "\n"

    def test_overall_risk_shape(self, hipaa_report):
        document = json.loads(to_json(hipaa_report))
        assert document["overall_risk"] == {"level": 4, "label": "Critical"}

    def test_dr_fixed_decimals(self, hipaa_report):
        document = json.loads(to_json(hipaa_report))
        top = document["exploitability_rows"][0]
        assert top["dr"] == "1.000000"
        for entry in document["metrics_appendix"]["discrimination_rates"]:
            assert len(entry["dr"].split(".")[1]) == 6

    def test_empty_warnings_render_as_empty_array(self, initial, reference_meta):
        options = AssessmentOptions(
            explicit_combinations=reference_meta.options.explicit_combinations
        )  # no notes
        report = assess(initial, reference_meta.attributes, options)
        document = json.loads(to_json(report))
        assert document["warnings"] == []

    def test_flagged_rows_one_based(self, initial_report):
        document = json.loads(to_json(initial_report))
        assert [r["row"] for r in document["flagged_records"]] == [6, 7, 8, 9]

    def test_eight_byte_flagged_records_render_the_same(self, initial, reference_meta):
        """Past 2**32 row-attribute pairs the arrays hold 8-byte ints; a
        typecode chosen as for 2**32 times the pairs takes that branch on a
        small table, whose arrays otherwise hold 2-byte ints."""
        args = (initial, reference_meta.attributes, reference_meta.options)
        narrow = assess(*args)
        with mock.patch.object(engine, "typecode", lambda size: typecode(size << 32)):
            wide = assess(*args)
        assert (narrow.flagged_rows.itemsize, wide.flagged_rows.itemsize) == (2, 8)
        assert wide.flagged_outcome.itemsize == 8
        assert len(wide.flagged_rows) > 0
        assert to_json(wide) == to_json(narrow)
        assert to_markdown(wide) == to_markdown(narrow)

    def test_injective_on_distinct_reports(self, hipaa_report, initial_report):
        assert to_json(hipaa_report) != to_json(initial_report)

    @given(_drawn_reports())
    @settings(max_examples=300, deadline=None)
    def test_canonical_on_drawn_strings(self, report):
        payload = to_json(report)
        document = json.loads(payload)
        canonical = json.dumps(document, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
        assert payload == (canonical + "\n").encode("utf-8")
        assert report_to_dict(report) == document

    def test_equal_levels_of_two_scales_encode_apart(self):
        # Levels are IntEnums, so two scales' level 3 compare equal.
        assert RiskLevel(3) == SeverityLevel(3)
        assert LEVEL.json(RiskLevel(3)) == '{"label":"High","level":3}'
        assert LEVEL.json(SeverityLevel(3)) == '{"label":"Significant","level":3}'

    def test_levels_and_labels_consistent(self, hipaa_report):
        objects = []  # each JSON object, innermost first
        json.loads(to_json(hipaa_report), object_hook=objects.append)
        levels = [node for node in objects if set(node) == {"level", "label"}]
        assert levels
        for level in levels:
            assert 1 <= level["level"] <= 4
            assert isinstance(level["label"], str) and level["label"]


class TestMarkdown:
    def test_section_order(self, hipaa_report):
        text = to_markdown(hipaa_report)
        sections = [
            "## Summary",
            "## Severity",
            "## Exposure",
            "## Exploitability",
            "## Risk",
            "## Flagged Records",
            "## Metrics Appendix",
            "## Warnings",
        ]
        positions = [text.index(s) for s in sections]
        assert positions == sorted(positions)

    def test_hipaa_exploitability_row(self, hipaa_report):
        text = to_markdown(hipaa_report)
        assert "Age/Gender/Country | 4-EE | 4-Critical | 4-Very Easy" in text
        assert "Admission Date/Blood Type | 2-IE | 4-Critical | 3-Easy" in text

    def test_flagged_rows_bold(self, initial_report):
        text = to_markdown(initial_report)
        for row in ("6", "7", "8", "9"):
            assert f"| **{row}** |" in text
        assert "**HIV**" in text

    def test_no_flagged_records_renders_none(self):
        d = Dataset(
            attributes=("q", "s"),
            rows=(("a", "x"), ("b", "y"), ("a", "x")),
            source_label="mild",
        )
        report = assess(d, [qi("q", "IR"), sens("s", (1, 1, 1))])
        assert len(report.flagged_rows) == 0
        # No overrides, no flagged records and no warnings: the override block is
        # left out, and the other two sections print ``none``.
        assert to_markdown(report) == MILD_MARKDOWN
        assert to_json(report) == MILD_JSON

    @pytest.mark.parametrize("name", [*fixtures.FIXTURE_NAMES, "pipes"])
    def test_table_rows_match_delimiter_row(self, name, reference_meta):
        if name == "pipes":
            report = _pipes_report()
        else:
            dataset = fixtures.fixture_dataset(name)
            report = assess(dataset, reference_meta.attributes, reference_meta.options)
        tables = [[]]
        for line in to_markdown(report).split("\n"):
            if line.startswith("|"):
                tables[-1].append(line)
            elif tables[-1]:
                tables.append([])
        tables = [t for t in tables if t]
        assert len(tables) == 7
        for lines in tables:
            assert set(lines[1]) == set("|- ")  # the delimiter row
            assert [_cell_count(line) for line in lines] == [_cell_count(lines[1])] * len(lines)

    def test_cells_show_markup_as_text(self):
        report = _pipes_report()
        table = report_to_dict(report)["value_severity_table"]
        lines = to_markdown(report).split("\n")
        start = lines.index("Value severity overrides:") + 4  # past the header rows
        assert [_read_cells(line) for line in lines[start : start + len(table)]] == [
            [row["attribute"], row["value"], "4-Maximum"] for row in table
        ]

    def test_levels_agree_with_json(self, hipaa_report):
        text = to_markdown(hipaa_report)
        document = json.loads(to_json(hipaa_report))
        overall = document["overall_risk"]
        assert f"**{overall['level']}-{overall['label']}**" in text


@given(st.sampled_from([0.25, 0.5, 0.75]).flatmap(lambda b: st.floats(b - 1e-6, b + 1e-6)))
def test_printed_rate_bands_as_its_level(rate):
    """A rate or class score prints within 1e-6 of itself, and bands as itself."""
    for table in (EXPLOITABILITY, FLAGGED, DISCRIMINATION_RATES):
        for column in table.columns:
            if column.key in ("dr", "class_inference"):
                for text in (column.kind.json(rate)[1:-1], column.kind.markdown(rate)):
                    assert band(float(text)) == band(rate) and abs(float(text) - rate) <= 1e-6


class TestGoldenFiles:
    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_fixture_markdown_matches_golden(self, name, reference_meta):
        dataset = fixtures.fixture_dataset(name)
        report = assess(dataset, reference_meta.attributes, reference_meta.options)
        golden = (GOLDEN_DIR / f"{name}.md").read_bytes()
        assert to_markdown(report).encode("utf-8") == golden
