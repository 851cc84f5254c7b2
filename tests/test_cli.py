"""Command-line behaviour: exit codes, stream separation, round trips."""

import argparse
import codecs
import contextlib
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reident_risk.cli
from conftest import generated, heap, run
from reident_risk import assess, load_csv, load_metadata, to_json, to_markdown
from reident_risk.cli import _write_report, build_parser, main
from reident_risk.fixtures import (
    FIXTURE_NAMES,
    fixture_csv,
    reference_metadata_json,
    write_fixture,
)
from reident_risk.report import _PART_RECORDS as B
from reident_risk.report import json_parts, markdown_parts

QI_ARG = "Age,Gender,Country,Admission Date,Blood Type"
SRC = str(Path(__file__).resolve().parents[1] / "src")
# Help, usage and argparse errors at 80 columns, per invocation, as written
# by Python 3.11 when every parser was built on every call.
CLI_TEXT = json.loads((Path(__file__).parent / "cli_text.json").read_text(encoding="utf-8"))


@pytest.fixture()
def emitted(tmp_path):
    paths = {}
    for name in FIXTURE_NAMES:
        csv_path, meta_path = write_fixture(name, tmp_path)
        paths[name] = (str(csv_path), str(meta_path))
    return paths


def _without_severity(meta, tmp_path) -> str:
    """A copy of the hipaa metadata whose sensitive attribute has no severity."""
    document = json.loads(Path(meta).read_text(encoding="utf-8"))
    for attr in document["attributes"]:
        if attr["name"] == "Disease":
            attr.pop("severity")
            attr.pop("value_severity")
    broken = tmp_path / "broken.meta.json"
    broken.write_text(json.dumps(document), encoding="utf-8")
    return str(broken)


def main_on_ascii_stdout(argv):
    """Exit code and stdout bytes of ``main(argv)`` on a stdout that cannot
    encode non-ASCII text, as under PYTHONIOENCODING=ascii."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.buffer.getvalue()


def main_on_closed_pipe(argv, limit):
    """Exit code of ``main(argv)`` and the bytes it wrote to a stdout whose
    reader closes it after ``limit`` bytes."""

    class Pipe(io.BytesIO):
        def write(self, data):
            if self.tell() + len(data) > limit:
                raise BrokenPipeError(32, "Broken pipe")
            return super().write(data)

    pipe = Pipe()
    with contextlib.redirect_stdout(io.TextIOWrapper(pipe, encoding="utf-8")):
        code = main(argv)
        return code, pipe.getvalue()


def _quoted(csv):
    """One ``Flu`` cell quoted past row 1,000."""
    at = csv.index(b",Flu,", len(b"".join(csv.splitlines(True)[:1001])))
    return csv[:at] + b',"Flu"' + csv[at + 4 :]


# Other spellings of one table. Chunks of plain lines, CRLF ones too, are split
# directly, and the csv module reads on from the first other chunk.
SPELLINGS = {
    "quoted": _quoted,
    "crlf": lambda csv: csv.replace(b"\n", b"\r\n"),
    "bomcrlf": lambda csv: codecs.BOM_UTF8 + csv.replace(b"\n", b"\r\n"),
    "padded": lambda csv: b"".join(b" %s \n" % r.replace(b",", b" , ") for r in csv.splitlines()),
}


class TestAssess:
    def test_hipaa_assessment_succeeds(self, emitted, capsys):
        data, meta = emitted["hipaa"]
        code, out, err = run(["assess", "--data", data, "--meta", meta], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["overall_risk"] == {"level": 4, "label": "Critical"}

    def test_markdown_format(self, emitted, capsys):
        data, meta = emitted["initial"]
        code, out, _ = run(["assess", "--data", data, "--meta", meta, "--format=markdown"], capsys)
        assert code == 0 and out.startswith("# Re-identification Risk Assessment")

    def test_both_formats_to_files(self, emitted, tmp_path, capsys):
        """On stdout, the two files' reports are joined by a newline."""
        data, meta = emitted["kanon"]
        argv = ["assess", "--data", data, "--meta", meta, "--format", "both"]
        assert run([*argv, "--out", str(tmp_path / "report")], capsys) == (0, "", "")
        reports = [(tmp_path / name).read_bytes() for name in ("report.json", "report.md")]
        assert run(argv, capsys) == (0, b"\n".join(reports).decode(), "")

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_spellings_of_a_table_give_its_report(self, spelling, tmp_path, capsys):
        reports = []
        for name, spell in (("plain", bytes), (spelling, SPELLINGS[spelling])):
            data, meta = generated(tmp_path / name, "kanon_bulk", spell)
            reports.append(run(["assess", "--data", data, "--meta", meta, "--format=both"], capsys))
        assert reports[0][0] == 0 and reports[1] == reports[0]

    def test_near_unique_table_keeps_its_peak_heap(self, tmp_path, capsys):
        """The tracemalloc peak of a run on 20,000 raw_unique rows stays at
        or below 8 MiB. It was 6.18 MiB on Python 3.11."""
        data, meta = generated(tmp_path, "raw_unique", rows=20_000)
        argv = ["assess", "--data", data, "--meta", meta, "--out", str(tmp_path / "report.json")]
        results = []
        peak = heap(lambda: results.append(run(argv, capsys)))[0]
        assert results == [(0, "", "")] and peak <= 8 * 2**20, f"{peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("fmt", ["markdown", "both"])
    def test_stdout_report_is_utf8_bytes(self, fmt, tmp_path):
        data, meta = write_fixture("hipaa", tmp_path)
        data = data.rename(tmp_path / "hipaé.csv")
        argv = ["assess", "--data", str(data), "--meta", str(meta), "--format", fmt]
        code, out = main_on_ascii_stdout(argv)
        assert code == 0
        document = load_metadata(meta)
        report = assess(load_csv(data), document.attributes, document.options)
        markdown = to_markdown(report).encode("utf-8")
        assert "hipaé.csv".encode("utf-8") in markdown
        expected = markdown if fmt == "markdown" else to_json(report) + b"\n" + markdown
        assert out == expected

    def test_missing_data_path_is_io_failure(self, emitted, capsys):
        _, meta = emitted["hipaa"]
        code, out, err = run(["assess", "--data", "/nonexistent/x.csv", "--meta", meta], capsys)
        assert (code, out) == (1, "") and "/nonexistent/x.csv" in err

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("[" * 100_000 + "]" * 100_000, id="deep"),
            pytest.param('{"version": ' + "1" * 5_000 + "}", id="long-integer"),
        ],
    )
    def test_undecodable_metadata_is_parse_failure(self, text, emitted, tmp_path, capsys):
        data, _ = emitted["hipaa"]
        meta = tmp_path / "bad.meta.json"
        meta.write_text(text, encoding="utf-8")
        code, out, err = run(["assess", "--data", data, "--meta", str(meta)], capsys)
        assert (code, out) == (1, "") and "bad.meta.json: invalid JSON" in err

    def test_invalid_metadata_is_validation_failure(self, emitted, tmp_path, capsys):
        data, meta = emitted["hipaa"]
        argv = ["assess", "--data", data, "--meta", _without_severity(meta, tmp_path)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "") and "missing severity" in err

    @pytest.mark.parametrize("fmt", ["json", "markdown", "both"])
    def test_validation_failure_leaves_out_untouched(self, fmt, emitted, tmp_path, capsys):
        """The report file is opened only once the assessment has succeeded."""
        data, meta = emitted["hipaa"]
        out = tmp_path / "report"
        targets = [Path(f"{out}.json"), Path(f"{out}.md")] if fmt == "both" else [out]
        for target in targets:
            target.write_bytes(b"earlier report\n")
        argv = ["assess", "--data", data, "--meta", _without_severity(meta, tmp_path)]
        code, _, err = run([*argv, "--format", fmt, "--out", str(out)], capsys)
        assert code == 2 and "missing severity" in err
        assert [target.read_bytes() for target in targets] == [b"earlier report\n"] * len(targets)

    def test_malformed_csv_is_parse_failure(self, emitted, tmp_path, capsys):
        _, meta = emitted["hipaa"]
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2,3\n", encoding="utf-8")
        expected = "error: bad.csv: row 1 has 3 cells, expected 2\n"
        assert run(["assess", "--data", str(bad), "--meta", meta], capsys) == (1, "", expected)

    @pytest.mark.parametrize("command", ["assess", "metric"])
    def test_oversized_csv_cell_is_parse_failure(self, command, emitted, tmp_path, capsys):
        _, meta = emitted["hipaa"]
        big = tmp_path / "big.csv"
        big.write_text(f"Age,Disease\n23,Flu\n{'x' * 200_000},Flu\n", encoding="utf-8")
        arguments = ["--meta", meta] if command == "assess" else ["k", "--qi", "Age"]
        code, out, err = run([command, *arguments, "--data", str(big)], capsys)
        assert (code, out) == (1, "") and "row 2: field larger than field limit" in err

    @pytest.mark.parametrize("command", ["assess", "metric"])
    def test_invalid_utf8_csv_is_parse_failure(self, command, emitted, tmp_path, capsys):
        _, meta = emitted["hipaa"]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"Age,Disease\n23,Flu\n24,\xff\n")
        arguments = ["--meta", meta] if command == "assess" else ["k", "--qi", "Age"]
        code, out, err = run([command, *arguments, "--data", str(bad)], capsys)
        assert (code, out) == (1, "") and err.startswith("error: bad.csv: not valid UTF-8: ")

    def test_data_file_name_that_does_not_decode_is_rejected(self, emitted, tmp_path, capsys):
        """Its label would hold a lone surrogate, which no report can encode."""
        data, meta = emitted["hipaa"]
        named = tmp_path / os.fsdecode(b"h\xff.csv")
        shutil.copyfile(data, named)
        report = tmp_path / "report.json"
        argv = ["assess", "--data", str(named), "--meta", meta, "--out", str(report)]
        expected = "error: h\\udcff.csv: source_label: 'h\\udcff.csv' does not encode as UTF-8\n"
        assert run(argv, capsys) == (1, "", expected) and not report.exists()

    def test_note_that_does_not_encode_is_rejected(self, emitted, tmp_path, capsys):
        data, meta = emitted["hipaa"]
        document = json.loads(Path(meta).read_text(encoding="utf-8"))
        document["options"]["notes"] = ["\ud800"]
        noted = tmp_path / "noted.meta.json"
        noted.write_text(json.dumps(document), encoding="ascii")  # written as the escape \ud800
        report = tmp_path / "report.json"
        argv = ["assess", "--data", data, "--meta", str(noted), "--out", str(report)]
        expected = "error: options.notes: '\\ud800' does not encode as UTF-8\n"
        assert run(argv, capsys) == (1, "", expected) and not report.exists()

    @pytest.mark.parametrize("fmt", ["json", "both"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_io_failure(self, where, fmt, emitted, tmp_path, capsys):
        data, meta = emitted["hipaa"]
        if where == "missing-directory":
            report = tmp_path / "missing" / "report"
        else:
            report = tmp_path / "report"
            # The path the first report goes to is a directory.
            (tmp_path / ("report.json" if fmt == "both" else "report")).mkdir()
        argv = ["assess", "--data", data, "--meta", meta, "--format", fmt, "--out", str(report)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "") and err.startswith("error: ") and str(report) in err

    @pytest.mark.parametrize("fmt", ["json", "both"])
    @pytest.mark.parametrize("limit", [0, 100])
    def test_closed_pipe_is_io_failure(self, limit, fmt, emitted, capsys):
        """A reader that closes stdout after ``limit`` bytes, as ``| head -c
        100`` does, ends the run with exit 1 and one error line."""
        data, meta = emitted["hipaa"]
        code, written = main_on_closed_pipe(
            ["assess", "--data", data, "--meta", meta, "--format", fmt], limit
        )
        assert code == 1
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        document = load_metadata(meta)
        report = to_json(assess(load_csv(data), document.attributes, document.options))
        assert report.startswith(written)


def test_rate_just_below_a_band_boundary_prints_below_it(tmp_path, capsys):
    """A rate of 0.2499995 bands Weak, so it prints as 0.249999, not as the
    0.250000 that a reader would band Moderate."""
    data, meta = tmp_path / "t.csv", tmp_path / "t.meta.json"
    cells = {"a,x": 28, "a,y": 9, "a,z": 3, "b,x": 9, "b,y": 4, "b,z": 37}
    data.write_text("Q,S\n" + "".join(f"{row}\n" * n for row, n in cells.items()), "utf-8")
    attributes = [
        {"name": "Q", "role": "quasi_identifier", "exposure": "EE"},
        {"name": "S", "role": "sensitive", "severity": {"bodily": 1, "material": 1, "moral": 1}},
    ]
    meta.write_text(json.dumps({"version": 1, "attributes": attributes}), "utf-8")
    code, out, _ = run(["assess", f"--data={data}", f"--meta={meta}", "--format=both"], capsys)
    assert code == 0 and "0.250000" not in out
    assert out.count('"dr":"0.249999"') == 2 and "| 0.249999 | 1-Weak |" in out
    code, out, _ = run(["metric", "dr", f"--data={data}", "--qi=Q", "--sensitive=S"], capsys)
    assert (code, json.loads(out)["dr"], json.loads(out)["inference"]) == (0, "0.249999", 1)


def _with_flagged(report, n):
    """``report`` with ``n`` flagged records, rows 0..n-1, cycling through its outcomes."""
    outcomes = report.outcomes if n else ()
    flagged_outcome = tuple(j % len(outcomes) for j in range(n))
    return report._replace(
        flagged_rows=tuple(range(n)), flagged_outcome=flagged_outcome, outcomes=outcomes
    )


class TestStreamedReport:
    """Reports are written a part of ``B`` flagged records at a time."""

    @pytest.mark.parametrize("n", [0, 4 * B - 1, 4 * B, 4 * B + 1, 8 * B + 1])
    def test_block_boundaries(self, n, hipaa_report, tmp_path):
        report = _with_flagged(hipaa_report, n)
        as_json, as_markdown = to_json(report), to_markdown(report).encode("utf-8")
        both = as_json + b"\n" + as_markdown
        for fmt, text in {"json": as_json, "markdown": as_markdown, "both": both}.items():
            stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
            with contextlib.redirect_stdout(stdout):
                _write_report(report, fmt, None)
            assert stdout.buffer.getvalue() == text
            _write_report(report, fmt, str(tmp_path / fmt))
        names = ("json", "markdown", "both.json", "both.md")
        assert [(tmp_path / name).read_bytes() for name in names] == [as_json, as_markdown] * 2

        outcomes = [report.outcomes[o] for o in report.flagged_outcome]
        assert json.loads(as_json)["flagged_records"] == [
            {
                "row": row + 1,
                "attribute": o.attribute,
                "value": o.sensitive_value,
                "value_severity": {"level": o.value_severity, "label": o.value_severity.label},
                "class_inference": f"{o.class_inference:.6f}",
                "record_risk": {"level": o.record_risk, "label": o.record_risk.label},
            }
            for row, o in zip(report.flagged_rows, outcomes)
        ]
        section = as_markdown.decode().split("## Flagged Records\n\n")[1].split("\n\n")[0]
        if n == 0:
            assert section == "none"
        else:
            rows = section.splitlines()[2:]
            assert [line.split(" | ")[0] for line in rows] == [f"| **{r + 1}**" for r in range(n)]
            assert all(line.endswith("** |") for line in rows)

    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    def test_write_overhead_does_not_grow_with_flagged_records(self, fmt, hipaa_report, tmp_path):
        """The heap a write needs stays flat as the flagged records grow,
        because no more than a part of them is held as text."""

        def peak(n):
            report = _with_flagged(hipaa_report, n)
            return heap(lambda: _write_report(report, fmt, str(tmp_path / f"{n}.{fmt}")))[0]

        n = 4 * B
        small = peak(n)
        assert peak(4 * n) <= 1.5 * small

    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    def test_write_overhead_bounded_by_one_part(self, fmt, hipaa_report, tmp_path):
        """A write holds one part of flagged records at a time, as a list of
        records, as their joined text and as its bytes: its heap above the
        report is a few times the text of 64 records (4.5-4.9 times on
        Python 3.10-3.13 with tracemalloc started fresh, 5.1-5.6 times after
        the collection ``heap`` runs first), and 15-16 times with parts of 256
        records."""
        parts = json_parts if fmt == "json" else markdown_parts
        part = sys.getsizeof(max(parts(_with_flagged(hipaa_report, 64)), key=len))
        report = _with_flagged(hipaa_report, 16 * 64)
        _write_report(report, fmt, str(tmp_path / "first"))
        peak = heap(lambda: _write_report(report, fmt, str(tmp_path / "second")))[0]
        assert peak <= 6 * part, f"{peak / part:.2f} parts"


class TestMetric:
    def test_k_on_kanon(self, emitted, capsys):
        data, _ = emitted["kanon"]
        code, out, _ = run(["metric", "k", "--data", data, "--qi", QI_ARG], capsys)
        assert (code, json.loads(out)) == (0, {"k": 3})

    def test_ldiv_on_kanon(self, emitted, capsys):
        data, _ = emitted["kanon"]
        argv = ["metric", "ldiv", "--data", data, "--qi", QI_ARG, "--sensitive", "Disease"]
        code, out, _ = run(argv, capsys)
        assert (code, json.loads(out)) == (0, {"l": 1})

    def test_dr_on_hipaa_demographics(self, emitted, capsys):
        data, _ = emitted["hipaa"]
        argv = ["metric", "dr", "--data", data, "--qi=Age,Gender,Country", "--sensitive", "Disease"]
        code, out, _ = run(argv, capsys)
        payload = json.loads(out)
        assert (code, payload["dr"], payload["inference"]) == (0, "1.000000", 4)
        assert payload["h_s_given_qi"] == "0.000000"

    def test_stdout_metric_is_utf8_bytes(self, tmp_path):
        data = tmp_path / "t.csv"
        data.write_text("Âge,Disease\n20,Flu\n30,HIV\n", encoding="utf-8")
        argv = ["metric", "dr", "--data", str(data), "--qi", "Âge", "--sensitive", "Disease"]
        code, out = main_on_ascii_stdout(argv)
        assert code == 0
        assert out == (
            '{"dr": "1.000000", "h_s": "1.000000", "h_s_given_qi": "0.000000", "inference": 4, '
            '"inference_label": "Critical", "qi": ["Âge"], "sensitive": "Disease"}\n'
        ).encode("utf-8")

    def test_closed_pipe_is_io_failure(self, emitted, capsys):
        """A reader that closes stdout, as ``| head -c 0`` does, ends the run
        with exit 1 and one error line."""
        data, _ = emitted["kanon"]
        code, written = main_on_closed_pipe(["metric", "k", "--data", data, "--qi", QI_ARG], 0)
        assert code == 1
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert written == b""

    def test_unknown_attribute_is_validation_failure(self, emitted, capsys):
        data, _ = emitted["hipaa"]
        code, out, err = run(["metric", "k", "--data", data, "--qi", "Age,Zip"], capsys)
        assert (code, out) == (2, "") and "Zip" in err

    @pytest.mark.parametrize("metric", ["k", "ldiv", "dr"])
    def test_unknown_sensitive_is_validation_failure(self, metric, emitted, capsys):
        data, _ = emitted["hipaa"]
        argv = ["metric", metric, "--data", data, "--qi", "Age", "--sensitive", "Nope"]
        assert run(argv, capsys) == (2, "", "error: unknown attribute 'Nope'\n")

    def test_empty_qi_member_rejected(self, emitted, capsys):
        data, _ = emitted["hipaa"]
        expected = (2, "", "error: --qi: empty attribute name in 'Age,,Gender,'\n")
        assert run(["metric", "k", "--data", data, "--qi=Age,,Gender,"], capsys) == expected

    @pytest.mark.parametrize("metric", ["k", "ldiv", "dr"])
    def test_header_only_table_has_no_rows(self, metric, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("Age,Disease\n", encoding="utf-8")
        args = ["metric", metric, "--data", str(data), "--qi", "Age", "--sensitive", "Disease"]
        code, _, err = run(args, capsys)
        assert code == 2 and "no rows" in err

    def test_dr_requires_sensitive(self, emitted, capsys):
        data, _ = emitted["hipaa"]
        code, _, err = run(["metric", "dr", "--data", data, "--qi", "Age"], capsys)
        assert code == 2 and "requires --sensitive" in err


class TestFixtures:
    def test_emit_writes_both_files(self, tmp_path, capsys):
        code, out, _ = run(["fixtures", "emit", "initial", "--dir", str(tmp_path)], capsys)
        assert (code, out) == (0, "")  # paths are diagnostics, not report output
        assert (tmp_path / "initial.csv").exists() and (tmp_path / "initial.meta.json").exists()

    def test_unknown_fixture_name_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["fixtures", "emit", "bogus", "--dir", str(tmp_path)])
        assert err.value.code == 2

    def test_unknown_fixture_name_rejected_by_the_library(self):
        with pytest.raises(KeyError) as err:
            fixture_csv("nope")
        known = ", ".join(FIXTURE_NAMES)
        assert err.value.args == (f"unknown fixture 'nope'; available: {known}",)

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-a-file"])
    def test_unwritable_dir_is_io_failure(self, below, tmp_path, capsys):
        (tmp_path / "taken").write_text("not a directory", encoding="utf-8")
        target = tmp_path / "taken" / "sub" if below else tmp_path / "taken"
        code, out, err = run(["fixtures", "emit", "initial", "--dir", str(target)], capsys)
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / "taken") in err

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_emit_then_assess_round_trip(self, name, tmp_path, capsys):
        assert run(["fixtures", "emit", name, "--dir", str(tmp_path)], capsys)[0] == 0
        data, meta = str(tmp_path / f"{name}.csv"), str(tmp_path / f"{name}.meta.json")
        code, out, _ = run(["assess", "--data", data, "--meta", meta], capsys)
        assert code == 0
        json.loads(out)

    def test_emitted_row_counts(self, tmp_path):
        for name, expected in (("initial", 12), ("kanon", 9), ("hipaa", 12)):
            write_fixture(name, tmp_path)
            lines = (tmp_path / f"{name}.csv").read_text(encoding="utf-8").strip().splitlines()
            assert len(lines) == expected + 1  # header + data rows


_NAME = st.sampled_from(["Age", "Gender", "Country", "Blood Type", "Disease", "Zip", ""])
_SURROGATE = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=())
_TEXT = _NAME | st.text(max_size=6) | st.tuples(_NAME, _SURROGATE).map("".join)
_FIXTURE_CSV = st.sampled_from([fixture_csv(name).encode() for name in FIXTURE_NAMES])
_CSV = _FIXTURE_CSV | st.binary(max_size=40) | st.tuples(_FIXTURE_CSV, st.binary(max_size=8)).map(
    b"".join
)


@st.composite
def _drawn_meta(draw):
    """The reference document with drawn attribute names, override keys and
    notes; ``json.dumps`` writes a lone surrogate as its ``\\ud800`` escape."""
    document = json.loads(reference_metadata_json())
    for attribute in document["attributes"]:
        attribute["name"] = draw(st.just(attribute["name"]) | _TEXT)
    overrides = document["attributes"][-1]["value_severity"]
    for key in list(overrides):
        overrides[draw(st.just(key) | _TEXT)] = overrides.pop(key)
    document["options"]["notes"] = draw(st.lists(_TEXT, max_size=2))
    return json.dumps(document).encode()


_META = st.just(reference_metadata_json().encode()) | _drawn_meta() | st.binary(max_size=40)
# Bytes 0x80-0xff alone are not UTF-8: Python decodes such a file name to a lone surrogate.
_DATA_NAME = st.just(b"data.csv") | st.integers(0x80, 0xFF).map(lambda b: b"d%c.csv" % b)


@settings(deadline=None)  # writes files per example
@given(
    command=st.sampled_from(["assess", "metric"]),
    data=_CSV,
    data_name=_DATA_NAME,
    meta=_META,
    fmt=st.sampled_from(["json", "markdown", "both"]),
    out=st.sampled_from([None, "file", "existing", "directory", "missing-directory"]),
    metric=st.sampled_from(["k", "ldiv", "dr"]),
    qi=st.lists(_TEXT, max_size=3).map(",".join),
    sensitive=st.none() | _TEXT,
)
def test_fuzzed_invocation_exits_cleanly(
    command, data, data_name, meta, fmt, out, metric, qi, sensitive
):
    """Exit code 0, 1 or 2, no other exception, and on failure nothing on
    stdout, an existing ``--out`` file left as it was and no new one."""
    with tempfile.TemporaryDirectory() as tmp:  # a tmp_path fixture is not reset per example
        root = Path(tmp)
        data_path = os.fsdecode(os.path.join(os.fsencode(tmp), data_name))
        Path(data_path).write_bytes(data)
        (root / "meta.json").write_bytes(meta)
        (root / "directory").mkdir()
        if out == "existing":
            for suffix in ("", ".json", ".md"):
                (root / f"report{suffix}").write_bytes(b"earlier report")
        if command == "assess":
            argv = ["assess", "--data", data_path, "--meta", str(root / "meta.json")]
            argv += ["--format", fmt]
            if out is not None:
                target = {"directory": "directory", "missing-directory": "x/r"}.get(out, "report")
                argv += ["--out", str(root / target)]
        else:
            argv = ["metric", metric, "--data", data_path, f"--qi={qi}"]
            if sensitive is not None:
                argv.append(f"--sensitive={sensitive}")
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # reports use .buffer
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
            stdout.flush()
        inputs = {Path(data_path).name, "meta.json"}
        written = [path for path in root.iterdir() if path.is_file() and path.name not in inputs]
        outputs = {path.name: path.read_bytes() for path in written}
    assert code in (0, 1, 2)
    if code != 0:
        assert stdout.buffer.getvalue() == b""
        earlier = ["report", "report.json", "report.md"] if out == "existing" else []
        assert outputs == dict.fromkeys(earlier, b"earlier report")


# Modules that importing the CLI, ``assess`` and ``metric`` do not use:
# ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
# ``typing`` and ``pathlib`` each add milliseconds to start-up.
UNUSED = ("dataclasses", "inspect", "pathlib", "reident_risk.fixtures", "typing")


def _isolated(code):
    """Run ``code`` after importing the CLI from ``src`` alone, under ``-I -S``,
    which leaves out what an installation's ``site`` hooks may import, and ``-B``:
    ``-I`` ignores ``PYTHONDONTWRITEBYTECODE``, and no bytecode is written into ``src``."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import reident_risk.cli\n" + code
    argv = [sys.executable, "-B", "-I", "-S", "-c", code]
    return subprocess.run(argv, capture_output=True, text=True)


def test_import_loads_only_what_the_runtime_uses():
    """Start-up cost: no module of ``UNUSED`` is loaded, and with only ``src``
    added to the path, every other module loaded must be the standard
    library's: the runtime has no dependencies. The child writes no bytecode."""
    ran = _isolated(
        f"print(sorted(set({UNUSED!r}) & set(sys.modules)))\n"
        "print(sorted({m.partition('.')[0] for m in sys.modules} - sys.stdlib_module_names))\n"
        "print(sys.flags.dont_write_bytecode)"
    )
    assert (ran.stdout, ran.stderr) == ("[]\n['__main__', 'reident_risk']\n1\n", "")


def _loaded_by_main(argv):
    """The exit code of ``main(argv)`` in an isolated interpreter, and which
    modules of ``UNUSED`` it left loaded."""
    ran = _isolated(
        "try:\n"
        f"    code = reident_risk.cli.main({argv!r})\n"
        "except SystemExit as exc:  # argparse\n"
        "    code = exc.code\n"
        f"print(code, sorted(set({UNUSED!r}) & set(sys.modules)), file=sys.stderr)"
    )
    return ran.stderr.splitlines()[-1]


def test_assess_never_loads_the_fixtures_module(emitted, tmp_path):
    data, meta = emitted["hipaa"]
    out = str(tmp_path / "report")
    both = ["assess", "--data", data, "--meta", meta, "--format", "both", "--out", out]
    assert _loaded_by_main(both) == "0 []"
    metric = ["metric", "dr", "--data", data, f"--qi={QI_ARG}", "--sensitive", "Disease"]
    assert _loaded_by_main(metric) == "0 []"


@pytest.mark.parametrize("argv,code", [(["--help"], 0), (["nope"], 2)], ids=["help", "unknown"])
def test_help_and_errors_load_neither_typing_nor_pathlib(argv, code):
    """Help and argparse errors build every command's parser, the fixtures one too."""
    assert _loaded_by_main(argv) == f"{code} ['reident_risk.fixtures']"


def _full_build(argv):
    return build_parser().parse_args(argv)


CASE_IDS = [" ".join(case["argv"]) or "none" for case in CLI_TEXT]


@pytest.mark.parametrize("argv", [case["argv"] for case in CLI_TEXT], ids=CASE_IDS)
def test_help_usage_and_errors_read_as_with_every_parser_built(argv, monkeypatch, capsys):
    """argparse's wording varies between Python releases, so this compares
    a run with the build of all three commands in the same interpreter."""
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv, capsys) == run(argv, capsys, _full_build)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="text recorded under Python 3.11")
@pytest.mark.parametrize("case", CLI_TEXT, ids=CASE_IDS)
def test_help_usage_and_errors_keep_their_recorded_text(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(case["argv"], capsys) == (case["code"], case["stdout"], case["stderr"])


def test_module_run_reads_its_arguments_from_the_command_line(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": SRC}
    for argv in ([], ["fixtures", "emit", "nope"]):
        ran = subprocess.run(
            [sys.executable, "-m", "reident_risk.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (ran.returncode, ran.stdout, ran.stderr) == run(argv, capsys, _full_build)


def test_no_parser_is_alive_when_the_assessment_starts(emitted, monkeypatch, tmp_path):
    """argparse parsers hold reference cycles; ``main`` frees its own before
    the assessment, so they add nothing to its peak, also with the cyclic
    collector disabled."""
    alive = []

    def spy(*args):
        parsers = (o for o in gc.get_objects() if isinstance(o, argparse.ArgumentParser))
        alive.append(sum(parser.prog.startswith("reident-risk") for parser in parsers))
        return assess(*args)

    monkeypatch.setattr(reident_risk.cli, "assess", spy)
    data, meta = emitted["hipaa"]
    gc.collect()
    gc.disable()
    try:
        code = main(["assess", "--data", data, "--meta", meta, "--out", str(tmp_path / "r.json")])
    finally:
        gc.enable()
    assert (code, alive) == (0, [0])
