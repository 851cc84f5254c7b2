"""Command-line behaviour: exit codes, stream separation, round trips."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reident_risk import assess, load_csv, load_metadata, to_json, to_markdown
from reident_risk.cli import main
from reident_risk.fixtures import (
    FIXTURE_NAMES,
    fixture_csv,
    reference_metadata_json,
    write_fixture,
)

QI_ARG = "Age,Gender,Country,Admission Date,Blood Type"


@pytest.fixture()
def emitted(tmp_path):
    paths = {}
    for name in FIXTURE_NAMES:
        csv_path, meta_path = write_fixture(name, tmp_path)
        paths[name] = (str(csv_path), str(meta_path))
    return paths


def main_on_ascii_stdout(argv):
    """Exit code and stdout bytes of ``main(argv)`` on a stdout that cannot
    encode non-ASCII text, as under PYTHONIOENCODING=ascii."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.buffer.getvalue()


class TestAssess:
    def test_hipaa_assessment_succeeds(self, emitted, capsys):
        data, meta = emitted["hipaa"]
        code = main(["assess", "--data", data, "--meta", meta])
        captured = capsys.readouterr()
        assert code == 0
        document = json.loads(captured.out)
        assert document["overall_risk"] == {"level": 4, "label": "Critical"}
        assert captured.err == ""

    def test_markdown_format(self, emitted, capsys):
        data, meta = emitted["initial"]
        code = main(["assess", "--data", data, "--meta", meta, "--format", "markdown"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("# Re-identification Risk Assessment")

    def test_both_formats_to_files(self, emitted, tmp_path, capsys):
        data, meta = emitted["kanon"]
        out = str(tmp_path / "report")
        code = main(["assess", "--data", data, "--meta", meta, "--format", "both", "--out", out])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.md").exists()
        assert capsys.readouterr().out == ""

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
        code = main(["assess", "--data", "/nonexistent/x.csv", "--meta", meta])
        captured = capsys.readouterr()
        assert code == 1
        assert "/nonexistent/x.csv" in captured.err
        assert captured.out == ""

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
        code = main(["assess", "--data", data, "--meta", str(meta)])
        captured = capsys.readouterr()
        assert code == 1
        assert "bad.meta.json: invalid JSON" in captured.err
        assert captured.out == ""

    def test_invalid_metadata_is_validation_failure(self, emitted, tmp_path, capsys):
        data, meta = emitted["hipaa"]
        document = json.loads(Path(meta).read_text(encoding="utf-8"))
        for attr in document["attributes"]:
            if attr["name"] == "Disease":
                attr.pop("severity")
                attr.pop("value_severity")
        broken = tmp_path / "broken.meta.json"
        broken.write_text(json.dumps(document), encoding="utf-8")
        code = main(["assess", "--data", data, "--meta", str(broken)])
        captured = capsys.readouterr()
        assert code == 2
        assert "missing severity" in captured.err
        assert captured.out == ""

    def test_malformed_csv_is_parse_failure(self, emitted, tmp_path, capsys):
        _, meta = emitted["hipaa"]
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2,3\n", encoding="utf-8")
        code = main(["assess", "--data", str(bad), "--meta", meta])
        captured = capsys.readouterr()
        assert code == 1
        assert "row 1" in captured.err

    @pytest.mark.parametrize("command", ["assess", "metric"])
    def test_oversized_csv_cell_is_parse_failure(self, command, emitted, tmp_path, capsys):
        _, meta = emitted["hipaa"]
        big = tmp_path / "big.csv"
        big.write_text(f"Age,Disease\n23,Flu\n{'x' * 200_000},Flu\n", encoding="utf-8")
        arguments = ["--meta", meta] if command == "assess" else ["k", "--qi", "Age"]
        code = main([command, *arguments, "--data", str(big)])
        captured = capsys.readouterr()
        assert code == 1
        assert "row 2: field larger than field limit" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["assess", "metric"])
    def test_invalid_utf8_csv_is_parse_failure(self, command, emitted, tmp_path, capsys):
        _, meta = emitted["hipaa"]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"Age,Disease\n23,Flu\n24,\xff\n")
        arguments = ["--meta", meta] if command == "assess" else ["k", "--qi", "Age"]
        code = main([command, *arguments, "--data", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: bad.csv: not valid UTF-8: ")
        assert captured.out == ""

    @pytest.mark.parametrize("fmt", ["json", "both"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_io_failure(self, where, fmt, emitted, tmp_path, capsys):
        data, meta = emitted["hipaa"]
        if where == "missing-directory":
            out = tmp_path / "missing" / "report"
        else:
            out = tmp_path / "report"
            # The path the first report goes to is a directory.
            (tmp_path / ("report.json" if fmt == "both" else "report")).mkdir()
        code = main(["assess", "--data", data, "--meta", meta, "--format", fmt, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert captured.out == ""

    def test_determinism_across_runs(self, emitted, capsys):
        data, meta = emitted["initial"]
        main(["assess", "--data", data, "--meta", meta])
        first = capsys.readouterr().out
        main(["assess", "--data", data, "--meta", meta])
        second = capsys.readouterr().out
        assert first == second


class TestMetric:
    def test_k_on_kanon(self, emitted, capsys):
        data, _ = emitted["kanon"]
        code = main(["metric", "k", "--data", data, "--qi", QI_ARG])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out) == {"k": 3}

    def test_ldiv_on_kanon(self, emitted, capsys):
        data, _ = emitted["kanon"]
        code = main(
            ["metric", "ldiv", "--data", data, "--qi", QI_ARG, "--sensitive", "Disease"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out) == {"l": 1}

    def test_dr_on_hipaa_demographics(self, emitted, capsys):
        data, _ = emitted["hipaa"]
        code = main(
            [
                "metric",
                "dr",
                "--data",
                data,
                "--qi",
                "Age,Gender,Country",
                "--sensitive",
                "Disease",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["dr"] == "1.000000"
        assert payload["inference"] == 4
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

    def test_unknown_attribute_is_validation_failure(self, emitted, capsys):
        data, _ = emitted["hipaa"]
        code = main(["metric", "k", "--data", data, "--qi", "Age,Zip"])
        captured = capsys.readouterr()
        assert code == 2
        assert "Zip" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("metric", ["k", "ldiv", "dr"])
    def test_header_only_table_has_no_rows(self, metric, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("Age,Disease\n", encoding="utf-8")
        args = ["metric", metric, "--data", str(data), "--qi", "Age", "--sensitive", "Disease"]
        assert main(args) == 2
        assert "no rows" in capsys.readouterr().err

    def test_dr_requires_sensitive(self, emitted, capsys):
        data, _ = emitted["hipaa"]
        code = main(["metric", "dr", "--data", data, "--qi", "Age"])
        assert code == 2
        assert "requires --sensitive" in capsys.readouterr().err


class TestFixtures:
    def test_emit_writes_both_files(self, tmp_path, capsys):
        code = main(["fixtures", "emit", "initial", "--dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert (tmp_path / "initial.csv").exists()
        assert (tmp_path / "initial.meta.json").exists()
        assert captured.out == ""  # paths are diagnostics, not report output

    def test_unknown_fixture_name_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fixtures", "emit", "bogus", "--dir", str(tmp_path)])
        assert err.value.code == 2

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_emit_then_assess_round_trip(self, name, tmp_path, capsys):
        code = main(["fixtures", "emit", name, "--dir", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        code = main(
            [
                "assess",
                "--data",
                str(tmp_path / f"{name}.csv"),
                "--meta",
                str(tmp_path / f"{name}.meta.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        json.loads(captured.out)

    def test_emitted_row_counts(self, tmp_path):
        for name, expected in (("initial", 12), ("kanon", 9), ("hipaa", 12)):
            write_fixture(name, tmp_path)
            lines = (tmp_path / f"{name}.csv").read_text(encoding="utf-8").strip().splitlines()
            assert len(lines) == expected + 1  # header + data rows


_NAME = st.sampled_from(["Age", "Gender", "Country", "Blood Type", "Disease", "Zip", ""])
_TEXT = _NAME | st.text(max_size=6)
_FIXTURE_CSV = st.sampled_from([fixture_csv(name).encode() for name in FIXTURE_NAMES])
_CSV = _FIXTURE_CSV | st.binary(max_size=40) | st.tuples(_FIXTURE_CSV, st.binary(max_size=8)).map(
    b"".join
)
_META = st.just(reference_metadata_json().encode()) | st.binary(max_size=40)


@given(
    command=st.sampled_from(["assess", "metric"]),
    data=_CSV,
    meta=_META,
    fmt=st.sampled_from(["json", "markdown", "both"]),
    out=st.sampled_from([None, "file", "directory", "missing-directory"]),
    metric=st.sampled_from(["k", "ldiv", "dr"]),
    qi=st.lists(_TEXT, max_size=3).map(",".join),
    sensitive=st.none() | _TEXT,
)
def test_fuzzed_invocation_exits_cleanly(command, data, meta, fmt, out, metric, qi, sensitive):
    """Exit code 0, 1 or 2, no other exception, and nothing on stdout on failure."""
    with tempfile.TemporaryDirectory() as tmp:  # a tmp_path fixture is not reset per example
        root = Path(tmp)
        (root / "data.csv").write_bytes(data)
        (root / "meta.json").write_bytes(meta)
        (root / "directory").mkdir()
        if command == "assess":
            argv = ["assess", "--data", str(root / "data.csv"), "--meta", str(root / "meta.json")]
            argv += ["--format", fmt]
            if out is not None:
                target = {"file": "report", "directory": "directory", "missing-directory": "x/r"}
                argv += ["--out", str(root / target[out])]
        else:
            argv = ["metric", metric, "--data", str(root / "data.csv"), f"--qi={qi}"]
            if sensitive is not None:
                argv.append(f"--sensitive={sensitive}")
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # reports use .buffer
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
            stdout.flush()
    assert code in (0, 1, 2)
    if code != 0:
        assert stdout.buffer.getvalue() == b""
