"""Report serialization: canonical JSON, Markdown layout, golden files."""

import json
from pathlib import Path

import pytest

from reident_risk import fixtures
from reident_risk.engine import AssessmentOptions, assess
from reident_risk.model import (
    AttributeMeta,
    AttributeRole,
    Dataset,
    ExposureLevel,
    SeverityRating,
)
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


def _pipes_report():
    """Names and flagged values holding ``|``, a backslash and a line break."""
    values = ("a|b", "c\\|d", "e\nf")
    dataset = Dataset(
        attributes=("zip|code", "dx|code"),
        rows=(("1|2", values[0]), ("1|2", values[1]), ("3", values[2]), ("3", "g")),
        source_label="pipes",
    )
    meta = [
        AttributeMeta(
            name="zip|code",
            role=AttributeRole.QUASI_IDENTIFIER,
            exposure=ExposureLevel.EXTERNAL_EXTENDED,
        ),
        AttributeMeta(
            name="dx|code",
            role=AttributeRole.SENSITIVE,
            severity=SeverityRating(1, 1, 1),
            value_severity={v: SeverityRating(4, 4, 4) for v in values},
        ),
    ]
    report = assess(dataset, meta)
    assert len(report.flagged_records) == 3
    return report


@pytest.fixture(scope="module")
def hipaa_report(hipaa, reference_meta):
    return assess(hipaa, reference_meta.attributes, reference_meta.options)


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

    def test_injective_on_distinct_reports(self, hipaa_report, initial_report):
        assert to_json(hipaa_report) != to_json(initial_report)

    def test_levels_and_labels_consistent(self, hipaa_report):
        document = report_to_dict(hipaa_report)

        def walk(node):
            if isinstance(node, dict):
                if set(node) == {"level", "label"}:
                    yield node
                else:
                    for v in node.values():
                        yield from walk(v)
            elif isinstance(node, list):
                for item in node:
                    yield from walk(item)

        for level in walk(document):
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
        meta = [
            AttributeMeta(
                name="q",
                role=AttributeRole.QUASI_IDENTIFIER,
                exposure=ExposureLevel.INTERNAL_RESTRICTED,
            ),
            AttributeMeta(
                name="s", role=AttributeRole.SENSITIVE, severity=SeverityRating(1, 1, 1)
            ),
        ]
        report = assess(d, meta)
        assert report.flagged_records == ()
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

    def test_levels_agree_with_json(self, hipaa_report):
        text = to_markdown(hipaa_report)
        document = json.loads(to_json(hipaa_report))
        overall = document["overall_risk"]
        assert f"**{overall['level']}-{overall['label']}**" in text


class TestGoldenFiles:
    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_fixture_report_matches_golden(self, name, reference_meta):
        dataset = fixtures.fixture_dataset(name)
        report = assess(dataset, reference_meta.attributes, reference_meta.options)
        golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
        assert to_json(report) == golden

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_fixture_markdown_matches_golden(self, name, reference_meta):
        dataset = fixtures.fixture_dataset(name)
        report = assess(dataset, reference_meta.attributes, reference_meta.options)
        golden = (GOLDEN_DIR / f"{name}.md").read_bytes()
        assert to_markdown(report).encode("utf-8") == golden
