"""CSV and metadata document loading."""

import codecs
import copy
import csv
import gc
import io
import itertools
import json
import os
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import naive_metrics as naive
from conftest import heap
from reident_risk.engine import (
    DEFAULT_EXPLOITABILITY_MATRIX,
    DEFAULT_RISK_MATRIX,
    AssessmentError,
    AssessmentOptions,
    CombinationStrategy,
    assess,
)
from reident_risk.fixtures import fixture_csv, fixture_dataset, reference_metadata_json
from reident_risk.ingest import (
    _CHUNK_BYTES,
    IngestError,
    MetadataDocument,
    load_csv,
    load_metadata,
)
from reident_risk.model import (
    _BLOCK_ROWS,
    AttributeMeta,
    AttributeRole,
    Column,
    Dataset,
    ExposureLevel,
    SeverityLevel,
    SeverityRating,
)
from reident_risk.report import to_json


def load_text(text, label="t"):
    """``load_csv`` on CSV text in memory, labelled ``label``."""
    stream = io.StringIO(text)
    stream.name = label
    return load_csv(stream)


B = _BLOCK_ROWS
OVERSIZED = "x" * (csv.field_size_limit() + 1)
TOO_LARGE = f"field larger than field limit ({csv.field_size_limit()})"


def meta_doc(**overrides):
    base = json.loads(reference_metadata_json())
    base.update(overrides)
    return io.StringIO(json.dumps(base))


# The reference document with the default matrices spelled out, so that
# every kind of value the format has appears at some path.
REFERENCE = {
    **json.loads(reference_metadata_json()),
    "matrices": {
        "exploitability": [list(row) for row in DEFAULT_EXPLOITABILITY_MATRIX.cells],
        "risk": [list(row) for row in DEFAULT_RISK_MATRIX.cells],
    },
}


def paths(node, prefix=()):
    """The path of every value in a JSON document, the root's included."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from paths(child, prefix + (key,))


def with_value(where, value):
    """REFERENCE with the value at path ``where`` replaced, as a stream."""
    if not where:
        return io.StringIO(json.dumps(value))
    document = copy.deepcopy(REFERENCE)
    node = document
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return io.StringIO(json.dumps(document))


def _reference_load(path):
    """Naive oracle for load_csv on the file at ``path``: decode the file whole,
    read the rows one by one from its lines, strip each and check it as it is
    read, the header first, then code each column with a Counter. A byte that
    is not UTF-8 ends the lines at the last line end before it, and then
    raises. Returns ``(attributes, row_count, columns)`` or the error message."""
    label, error, data = path.name, None, path.read_bytes()
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        text = data[bom : bom + exc.start].decode("utf-8")
        text = text[: text.rfind("\n") + 1]
        error = f"{label}: not valid UTF-8: {exc.reason} at byte offset {bom + exc.start}"

    def lines():
        yield from io.StringIO(text, newline="")
        if error:
            raise UnicodeError(error)

    rows = []
    try:
        for record in csv.reader(lines()):
            row = [cell.strip() for cell in record]
            if rows and len(row) != len(rows[0]):
                return f"{label}: row {len(rows)} has {len(row)} cells, expected {len(rows[0])}"
            if not rows:  # the header
                if not row:
                    return f"{label}: dataset needs at least one attribute"
                if "" in row:
                    return f"{label}: attribute names must be non-empty"
                if repeated := sorted(name for name, n in Counter(row).items() if n > 1):
                    return f"{label}: duplicate attribute names: {', '.join(repeated)}"
            rows.append(row)
    except csv.Error as exc:
        return f"{label}: {f'row {len(rows)}' if rows else 'header'}: {exc}"
    except UnicodeError as exc:
        return str(exc)
    if not rows:
        return f"{label}: empty file, no header row"
    header, body = rows[0], rows[1:]
    columns = {}
    for i, name in enumerate(header):
        counts = Counter(row[i] for row in body)
        values = tuple(counts)
        codes = [values.index(row[i]) for row in body]
        columns[name] = Column(values, codes, [counts[value] for value in values])
    return tuple(header), len(body), columns


def _loaded(dataset):
    """A dataset in ``_reference_load``'s form, each column's codes as a list.
    Codes take the bytes ``naive.code_width`` gives for the column's values."""
    columns = dict(dataset.columns)
    for name, column in columns.items():
        assert memoryview(column.codes).itemsize == naive.code_width(len(column.values))
        columns[name] = column._replace(codes=list(column.codes))
    return dataset.attributes, dataset.row_count, columns


def _assert_loads(data, expected=None):
    """``load_csv`` on ``data`` in a file named ``t`` and, if it decodes, in a
    text stream of its text, a byte-order mark kept, gives what
    ``_reference_load`` gives, which is returned: the
    columns, or the error message. So does ``expected`` if given: the rows of
    cells, the header first, or the message after the label."""
    with tempfile.TemporaryDirectory() as tmp:  # a tmp_path fixture is not reset per example
        path = Path(tmp) / "t"
        path.write_bytes(data)
        reference = _reference_load(path)
        try:
            sources = [path, io.StringIO(data.decode())]
            sources[1].name = "t"
        except UnicodeDecodeError:
            sources = [path]
        for source in sources:
            try:
                assert _loaded(load_csv(source)) == reference
            except IngestError as exc:
                assert str(exc) == reference
    if isinstance(expected, str):
        assert reference == f"t: {expected}"
    elif expected is not None:
        assert reference == _loaded(Dataset(expected[0], expected[1:]))
    return reference


def _csv(lines):
    """The bytes of a file of ``lines``, each ended by a line feed."""
    return "".join(f"{line}\n" for line in lines).encode()


def _load_overhead(path, rows):
    """The tracemalloc peak of ``load_csv(path)`` above the heap before it and
    above the ``Dataset`` of ``rows`` rows it returns, after a first load has
    done any import that the codec needs."""
    assert load_csv(path).row_count == rows
    peak, held = heap(lambda: load_csv(path))
    return peak - held


class TestLoadCsv:
    def test_fixture_shape(self):
        d = load_text(fixture_csv("initial"), label="initial")
        assert len(d.attributes) == 6
        assert d.row_count == 12
        assert d.attributes[0] == "Age"
        first = ("23", "M", "Nigeria", "2019-09-21", "A+", "Colds")
        assert naive.project(d, d.attributes)[0] == first

    def test_whitespace_trimmed_case_preserved(self):
        _assert_loads(b"a, b \n X , yY \n", [("a", "b"), ("X", "yY")])

    def test_header_only_is_valid(self):
        _assert_loads(b"a,b\n", [("a", "b")])

    def test_ragged_row_names_row_number(self):
        lines = ["a,b,c,d,e"] + ["1,2,3,4,5"] * 12
        lines[6] = "1,2,3,4"  # data row 6 (line 7)
        _assert_loads(_csv(lines), "row 6 has 4 cells, expected 5")

    @pytest.mark.parametrize("row", [B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize(
        "fault,message",
        [("1", "row {} has 1 cells, expected 2"), (f"{OVERSIZED},2", f"row {{}}: {TOO_LARGE}")],
        ids=["ragged", "oversized"],
    )
    def test_fault_named_across_blocks(self, row, fault, message):
        """In rows of two lines each, which csv.reader reads from the start,
        and in plain rows, which are split directly up to the fault's batch."""
        for body in ['"1\n2",3', "1,3"]:
            lines = ["a,b"] + [body] * (3 * B)
            lines[row] = fault
            _assert_loads(_csv(lines), message.format(row))

    @pytest.mark.parametrize("gap", [5, 2 * B])
    @pytest.mark.parametrize(
        "first,later,message",
        [
            ("1", OVERSIZED, "row 3 has 1 cells, expected 2"),
            (OVERSIZED, "1", f"row 3: {TOO_LARGE}"),
        ],
        ids=["ragged-first", "oversized-first"],
    )
    def test_first_fault_in_file_order_is_reported(self, gap, first, later, message):
        lines = ["a,b"] + ["1,2"] * (3 * B)
        lines[3], lines[3 + gap] = first, later
        _assert_loads(_csv(lines), message)

    def test_load_overhead_does_not_grow_with_rows(self, tmp_path):
        """The heap a load needs beyond the Dataset it returns stays flat as
        the file grows, because no more than a block of rows is held as
        strings. A path, not a text stream: a stream holds its own copy."""

        def overhead(rows):
            path = tmp_path / f"{rows}.csv"
            cells = (f"v{i % 7},w{i % 53},x{i % 101},y{i % 3}\n" for i in range(rows))
            path.write_text("a,b,c,d\n" + "".join(cells), encoding="utf-8")
            return _load_overhead(path, rows)

        n = 4 * B
        assert overhead(4 * n) <= 1.5 * overhead(n)

    def test_load_overhead_bounded_by_one_batch(self, tmp_path):
        """The heap a load needs beyond the Dataset it returns is a few times
        one batch of ``_BLOCK_ROWS`` lines as str objects: a chunk of text, its
        cells, the columns sliced out of them. Python 3.11 read 7.7 batches in
        chunks of 4 KiB, 15.0 in chunks of 8 KiB, and 7.3 in batches of lines."""
        lines = [f"v{i % 7},w{i % 53},x{i % 101},y{i % 3}\n" for i in range(24 * B)]
        path = tmp_path / "t.csv"
        path.write_text("a,b,c,d\n" + "".join(lines), encoding="utf-8")
        batch = sys.getsizeof(lines[:B]) + sum(map(sys.getsizeof, lines[:B]))
        overhead = _load_overhead(path, len(lines))
        assert overhead <= 8 * batch, f"{overhead / batch:.2f} batches"

    @staticmethod
    def _wide_lines(path, quote=""):
        """Write 24 batches of lines of about 370 characters, each with its
        first cell in ``quote``, after a header; return the lines."""
        pad = "x" * 120
        lines = [f"{quote}{pad}{i % 7}{quote},{pad}{i % 5},{pad}{i % 3}\n" for i in range(24 * B)]
        path.write_text("a,b,c\n" + "".join(lines), encoding="utf-8")
        return lines

    def test_load_overhead_bounded_by_one_chunk(self, tmp_path):
        """However few lines a chunk holds, a load needs a small multiple of
        ``_CHUNK_BYTES`` beyond its Dataset: on lines of about 370 characters,
        Python 3.11 read 9.5 chunks, and batches of 256 lines 121."""
        lines = self._wide_lines(tmp_path / "t.csv")
        overhead = _load_overhead(tmp_path / "t.csv", len(lines))
        assert overhead <= 16 * _CHUNK_BYTES, f"{overhead / _CHUNK_BYTES:.1f} chunks"

    def test_csv_module_fallback_frees_each_text_it_read(self, tmp_path):
        """A file with a quoted cell on every line goes to ``csv.reader`` from
        its first chunk, and each text is freed once read: on lines of about
        370 characters, the load needs a few batches of ``_BLOCK_ROWS`` lines
        beyond its Dataset. Python 3.11 read 2.6 batches, and 23.5 when every
        text read was kept to the end of the file."""
        lines = self._wide_lines(tmp_path / "t.csv", quote='"')
        batch = sys.getsizeof(lines[:B]) + sum(map(sys.getsizeof, lines[:B]))
        overhead = _load_overhead(tmp_path / "t.csv", len(lines))
        assert overhead <= 4 * batch, f"{overhead / batch:.2f} batches"

    def test_empty_header_rejected(self):
        _assert_loads(b"\n1,2\n", "dataset needs at least one attribute")

    def test_empty_file_rejected(self):
        _assert_loads(b"", "empty file, no header row")

    def test_duplicate_header_rejected(self):
        _assert_loads(b"a,a\n1,2\n", "duplicate attribute names: a")

    @pytest.mark.parametrize(
        "header,message",
        [
            ("a,,b", "attribute names must be non-empty"),
            (",,", "attribute names must be non-empty"),
            ("a,b,a", "duplicate attribute names: a"),
        ],
        ids=["blank", "all-blank", "duplicate"],
    )
    def test_header_names_checked_by_dataset(self, header, message):
        _assert_loads(f"{header}\n1,2,3\n".encode(), message)

    def test_quoted_cells(self):
        _assert_loads(b'a,b\n"x,y",z\n', [("a", "b"), ("x,y", "z")])

    def test_deterministic(self):
        text = fixture_csv("hipaa")
        assert load_text(text, label="x") == load_text(text, label="x")

    def test_path_loading(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n", encoding="utf-8")
        d = load_csv(p)
        assert d.source_label == "t.csv"
        assert naive.project(d, d.attributes) == [("1", "2")]

    @pytest.mark.parametrize(
        "source,message",
        [
            (io.BytesIO(b"a,b\n1,2\n"), "source: expected a path or a text stream, got <"),
            (type("ReadOnly", (), {"read": lambda self, n=-1: ""})(), "<stream>: empty file"),
            (
                type("NoSize", (), {"read": lambda self: ""})(),
                "source: expected a path or a text stream, got <",
            ),
        ],
        ids=["bytes", "read-only", "no-size"],
    )
    def test_stream_that_is_not_text_rejected(self, source, message):
        """A binary stream, or one whose read takes no size, is rejected as the
        source; an object whose read method returns an empty str is an empty
        stream."""
        with pytest.raises(IngestError, match=f"^{re.escape(message)}"):
            load_csv(source)

    def test_text_stream_that_is_not_utf8_rejected(self, tmp_path):
        """The error of a text stream's read is named with the stream."""
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n\xff,1\n")
        reason = "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"
        message = f"{path}: not valid UTF-8: {reason}"
        with open(path, encoding="utf-8") as stream:
            with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
                load_csv(stream)

    @pytest.mark.parametrize(
        "text,where",
        [
            pytest.param(f"a,b\n1,2\n{'x' * 200_000},3\n", "row 2", id="row"),
            pytest.param(f"{'a' * 200_000},b\n", "header", id="header"),
        ],
    )
    def test_oversized_cell_names_row(self, text, where):
        _assert_loads(text.encode(), f"{where}: {TOO_LARGE}")

    def test_invalid_utf8_rejected(self):
        """The message names the offset of the first bad byte in the file."""
        message = "not valid UTF-8: invalid start byte at byte offset 10"
        _assert_loads(b"a,b\n1,2\nx,\xff\n", message)

    @pytest.mark.parametrize(
        "ragged,bad", [(None, 2 * B - 10), (B + 4, 2 * B - 10), (50, 60)], ids=["None", "260", "50"]
    )
    def test_fault_read_before_bad_utf8_is_reported_first(self, ragged, bad):
        """The lines before a bad byte are read first: a fault among them is
        reported first, several chunks before the bad byte or in its chunk."""
        lines = [b"a,b"] + [b"x" * 60 + b",2"] * (2 * B)
        if ragged:
            lines[ragged] = b"1"
        lines[bad] = b"\xff" + lines[bad]
        data = b"\n".join(lines) + b"\n"
        offset = data.index(b"\xff")
        utf8 = f"not valid UTF-8: invalid start byte at byte offset {offset}"
        _assert_loads(data, f"row {ragged} has 1 cells, expected 2" if ragged else utf8)

    def test_byte_order_mark_not_in_header(self):
        data = codecs.BOM_UTF8 + b"Age,Disease\n23,Flu\n"
        _assert_loads(data, [("Age", "Disease"), ("23", "Flu")])

    def test_partial_byte_order_mark_is_not_utf8(self):
        message = "not valid UTF-8: unexpected end of data at byte offset 0"
        _assert_loads(codecs.BOM_UTF8[:2], message)


# A value put at path ``where`` of the reference document that its loading rejects,
# as ``(where, value, path, shown)``: the message names ``path`` first and shows ``shown``.
_BAD_VALUES = [
    (("attributes", 5, "severity"), [1, 2, 3], "attributes[5].severity", "[1, 2, 3]"),
    (("attributes", 5, "severity", "moarl"), 4, "attributes[5].severity", "'moarl'"),
    (
        ("attributes", 5, "value_severity", "HIV", "moarl"),
        4,
        "attributes[5].value_severity",
        "'HIV'",
    ),
    (("options", "explicit_combinations"), "ab", "options.explicit_combinations", "'ab'"),
    (("options", "notes"), [{"a": 1}, 3], "options.notes", "{'a': 1}"),
    (("matrices", "exploitability", 1, 2), 2.7, "matrices.exploitability", "2.7"),
    (("matrices", "risk", 0, 0), True, "matrices.risk", "True"),
    (("matrices", "risk", 3, 3), "2", "matrices.risk", "'2'"),
    (("version",), True, "version", "True"),
    (("version",), 1.0, "version", "1.0"),
    (("attributes", 5, "value_severity"), "x", "attributes[5].value_severity", "'x'"),
    (("attributes", 0, "role"), "chief", "attributes[0].role", "unknown attribute role 'chief'"),
    (
        ("attributes", 5, "severity", "bodily"),
        9,
        "attributes[5].severity",
        "bodily: SeverityLevel: level 9 out of range 1..4",
    ),
    (("matrices", "exploitability", 2, 3), 5, "matrices.exploitability", "cell (3,4) value 5"),
    (("matrices", "risk", 3, 3), 1, "matrices.risk", "row 4 decreases at column 4"),
    (("version",), 2, "version", "unrecognized value 2, expected 1"),
    *[
        (("options", "flag_threshold"), value, "options.flag_threshold", f"SeverityLevel: {shown}")
        for value, shown in [
            (9, "level 9 out of range 1..4"),
            (3.9, "expected int or str, got float"),
            (True, "expected level 1..4 or label, got bool"),
            ("3", "unknown label '3'"),
            (0, "level 0 out of range 1..4"),
            (5, "level 5 out of range 1..4"),
        ]
    ],
    (("options", "combination_strategy"), "pairwise", "options.combination_strategy", "'pairwise'"),
]


class TestLoadMetadata:
    def test_reference_document(self):
        doc = load_metadata(io.StringIO(reference_metadata_json()))
        assert doc.version == 1
        assert len(doc.attributes) == 6
        by_name = {m.name: m for m in doc.attributes}
        assert by_name["Age"].role is AttributeRole.QUASI_IDENTIFIER
        assert by_name["Age"].exposure is ExposureLevel.EXTERNAL_EXTENDED
        assert by_name["Blood Type"].exposure is ExposureLevel.INTERNAL_RESTRICTED
        disease = by_name["Disease"]
        assert disease.role is AttributeRole.SENSITIVE
        assert disease.severity.components() == (1, 3, 4)
        assert set(disease.value_severity) == {"Colds", "Flu", "Diabetes", "HIV", "Cancer"}
        assert doc.options.flag_threshold == 3
        assert doc.options.combination_strategy is CombinationStrategy.PER_LEVEL
        assert doc.options.explicit_combinations == (("Admission Date", "Blood Type"),)

    def test_severity_labels_accepted(self):
        doc = load_metadata(
            meta_doc(
                attributes=[
                    {
                        "name": "s",
                        "role": "sensitive",
                        "severity": {
                            "bodily": "negligible",
                            "material": "significant",
                            "moral": "maximum",
                        },
                    }
                ]
            )
        )
        rating = doc.attributes[0].severity
        assert rating.moral is SeverityLevel.MAXIMUM
        assert rating.components() == (1, 3, 4)

    def test_exposure_variant_labels_accepted(self):
        doc = load_metadata(
            meta_doc(
                attributes=[
                    {"name": "a", "role": "quasi_identifier", "exposure": "RI"},
                    {"name": "b", "role": "quasi_identifier", "exposure": "EI"},
                ]
            )
        )
        assert doc.attributes[0].exposure is ExposureLevel.INTERNAL_RESTRICTED
        assert doc.attributes[1].exposure is ExposureLevel.INTERNAL_EXTENDED

    def test_matrix_override_is_used(self):
        matrix = [[4, 4, 4, 4]] * 4
        doc = load_metadata(meta_doc(matrices={"risk": matrix}))
        assert doc.options.risk_matrix.lookup(1, 1) == 4

    def test_missing_attributes_rejected(self):
        with pytest.raises(IngestError, match="attributes"):
            load_metadata(io.StringIO('{"version": 1}'))

    def test_invalid_json_rejected(self):
        with pytest.raises(IngestError, match="invalid JSON"):
            load_metadata(io.StringIO("{nope"))

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("[" * 100_000 + "]" * 100_000, id="deep"),
            pytest.param('{"version": ' + "1" * 5_000 + "}", id="long-integer"),
        ],
    )
    def test_undecodable_json_rejected(self, text):
        with pytest.raises(IngestError, match="^<stream>: invalid JSON: "):
            load_metadata(io.StringIO(text))

    def test_flag_threshold_label_accepted(self):
        doc = load_metadata(meta_doc(options={"flag_threshold": "maximum"}))
        assert doc.options.flag_threshold is SeverityLevel.MAXIMUM

    def test_options_constructor_rejects_fractional_threshold(self):
        with pytest.raises(ValueError):
            AssessmentOptions(flag_threshold=3.9)

    @pytest.mark.parametrize(
        "overrides,path",
        [
            ({"options": {"combinaton_strategy": "cumulative"}}, "options.combinaton_strategy"),
            ({"matrix": {}}, "matrix"),
            ({"matrices": {"exploit": []}}, "matrices.exploit"),
            ({"attributes": [{"name": "a", "role": "sensitive", "rank": 1}]}, "attributes[0].rank"),
        ],
    )
    def test_unknown_key_rejected(self, overrides, path):
        with pytest.raises(IngestError, match=f"^{re.escape(path)}: unknown key$"):
            load_metadata(meta_doc(**overrides))

    @pytest.mark.parametrize(
        "attribute,path",
        [({"name": "a"}, "attributes[0].role"), ({"role": "other"}, "attributes[0].name")],
    )
    def test_missing_required_field_rejected(self, attribute, path):
        with pytest.raises(IngestError, match=f"^{re.escape(path)}: required field is missing$"):
            load_metadata(meta_doc(attributes=[attribute]))

    @pytest.mark.parametrize("where,value,path,shown", _BAD_VALUES)
    def test_bad_value_rejected_with_path(self, where, value, path, shown):
        with pytest.raises(IngestError, match=f"^{re.escape(path)}: .*{re.escape(shown)}"):
            load_metadata(with_value(where, value))


class _FsPath:
    """An ``os.PathLike`` that is not a ``pathlib.Path``."""

    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return self.path


@pytest.mark.parametrize(
    "load,text",
    [(load_csv, "a,b\n1,2\n"), (load_metadata, reference_metadata_json())],
    ids=["load_csv", "load_metadata"],
)
def test_source_is_a_path_or_a_text_stream(load, text, tmp_path):
    """A ``str``, ``bytes`` or ``os.PathLike`` is a path, opened and labelled
    with its file name; an object with ``read`` is a text stream, labelled with
    its ``name``; anything else is rejected."""
    path = tmp_path / "source"
    path.write_text(text, encoding="utf-8")
    stream = io.StringIO(text)
    stream.name = "source"
    sources = [path, str(path), os.fsencode(path), _FsPath(str(path)), _FsPath(os.fsencode(path))]
    loaded = [load(source) for source in [*sources, stream]]
    assert loaded == [loaded[0]] * len(loaded)
    for source in (None, 3, text.splitlines(keepends=True)):
        message = f"source: expected a path or a text stream, got {source!r}"
        with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
            load(source)


def test_readme_names_the_declared_keys():
    """The README lists the keys that the types taking their values declare:
    each ``<key>_matrix`` option is ``matrices.<key>``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("The allowed keys are")
    listed = re.findall(r"`(\w+)`", readme[start : readme.index(".", start)])
    options = [key.replace("_matrix", "") for key in AssessmentOptions.fields]
    declared = [*MetadataDocument.fields, "matrices", *AttributeMeta.fields, *options]
    assert set(listed) == set(declared)


# Values the format can mean, drawn as often as arbitrary JSON, so that many
# fuzzed documents load and reach assess.
_MEANINGFUL = st.integers(0, 5) | st.sampled_from(
    ["sensitive", "quasi_identifier", "identifier", "EE", "IR", "maximum", "Age", "Colds"]
)
_JSON = _MEANINGFUL | st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)
_INITIAL = fixture_dataset("initial")


@given(st.sampled_from(list(paths(REFERENCE))), _JSON)
def test_fuzzed_value_is_loaded_or_rejected(where, value):
    """Any JSON value at any path either loads or gives an IngestError, and a
    loaded document either gives a report or an AssessmentError."""
    try:
        document = load_metadata(with_value(where, value))
    except IngestError:
        return
    try:
        report = assess(_INITIAL, document.attributes, document.options)
    except AssessmentError:
        return
    to_json(report)


# CSV-shaped pieces mixed with arbitrary bytes: separators, quotes, line
# ends, a byte-order mark, NUL, a byte that is not UTF-8, and headers with
# blank or repeated names.
_CSV_PIECE = st.binary(max_size=6) | st.sampled_from(
    [b",", b'"', b"\r", b"\n", b"\r\n", b"\xef\xbb\xbf", b"\x00", b"\xff", b" ", b"a", b"b"]
    + [b"a,b\n", b"a,a\n", b"a,,b\n", b" ,\n", b"1,2\n", b"1,2,3\n", b'"x,\ny",z\n']
)


def _encode_row(cells, **format):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n", **format).writerow(cells)
    return out.getvalue().encode("utf-8")


@st.composite
def _faulty_csv(draw):
    """A header, a few drawn rows repeated over two to four blocks, up to two
    lines at block edges that the csv module does not read as a split (a
    quote, a CR or CRLF line end, a NUL, a blank line before it), and up to
    two faults: a ragged row, an oversized cell or a byte that is not UTF-8.
    Rows drawn without quotes make blocks that are split directly, so a
    fault often follows a block that was."""
    width = draw(st.integers(1, 3))
    cell = st.text(draw(st.sampled_from(["ab\té ", ' ab,"\n\r\té', "ab é"])), max_size=3)
    drawn = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=4))
    size = draw(st.integers(2, 4)) * B
    lines = [_encode_row([f"c{i}" for i in range(width)])]
    lines += [_encode_row(row) for row in drawn * (size // len(drawn) + 1)]
    edge = st.sampled_from([B - 1, B, B + 1, 2 * B])
    for _ in range(draw(st.integers(0, 2))):
        row = draw(edge)
        piece = draw(st.sampled_from(["quote", "cr", "crlf", "nul", "blank"]))
        if piece == "quote":
            lines[row] = _encode_row(["z"] * width, quoting=csv.QUOTE_ALL)
        elif piece in ("cr", "crlf"):
            lines[row] = lines[row][:-1] + (b"\r" if piece == "cr" else b"\r\n")
        else:
            lines[row] = (b"\x00" if piece == "nul" else b"\n") + lines[row]
    edges = st.sampled_from([1, B - 1, B, B + 1, 2 * B, 2 * B + 1])
    position = edges | st.integers(1, len(lines) - 1) | st.integers(B + 1, len(lines) - 1)
    for _ in range(draw(st.integers(0, 2))):
        row = draw(position)
        fault = draw(st.sampled_from(["short", "long", "oversized", "utf-8"]))
        if fault == "short":
            lines[row] = _encode_row(["z"] * (width - 1)) if width > 1 else b"\n"
        elif fault == "long":
            lines[row] = _encode_row(["z"] * (width + 1))
        elif fault == "oversized":
            lines[row] = _encode_row([OVERSIZED] * width)
        else:
            lines[row] = b"\xff" + lines[row]
    return b"".join(lines)


def test_cells_equal_once_trimmed_are_merged_across_blocks():
    """Cells that differ only in surrounding whitespace, first seen in
    different blocks, load as one value with their counts summed, as the
    naive reader codes them; the empty-cell warning counts the merged value."""
    rows = [["b", "1"]] * (3 * B)
    for row, cell in zip([B - 1, B, B + 1, 2 * B + 1], ["a", " a", "a\t", "  "]):
        rows[row - 1 :: B // 2] = [[cell, cell]] * len(rows[row - 1 :: B // 2])
    data = _encode_row([" v ", "w"]) + b"".join(map(_encode_row, rows))
    expected = _assert_loads(data)
    dataset = load_text(data.decode())
    assert dataset.columns["v"].values == ("b", "a", "")

    meta = [
        AttributeMeta("v", "quasi_identifier", exposure=4),
        AttributeMeta("w", "sensitive", severity=SeverityRating(1, 1, 1)),
    ]
    empty = sum(column.counts[column.values.index("")] for column in expected[2].values())
    warnings = " ".join(assess(dataset, meta).warnings)
    assert f"dataset contains {empty} empty-string cell(s)" in warnings


# A 257th value needs 256 rows before it, so it cannot show before row B + 1;
# column b's 256th value shows on row B.
@pytest.mark.parametrize("row", [B + 1, B + 2, 2 * B, 2 * B + 1])
def test_257th_value_turns_codes_into_an_array(row):
    """A column's codes are bytes up to 256 values, and an ``array('H')`` once a
    257th value shows, wherever in a block it does. Loaded from CSV, or built from
    a list or a generator of rows, the columns equal the naive reader's."""
    rows = [
        [f"v{r % 256}" if r < row else f"w{r % 3}", f"u{r % 256}", "x"]
        for r in range(1, 3 * B + 1)
    ]
    expected = _assert_loads(b"".join(map(_encode_row, [["a", "b", "c"]] + rows)))
    assert [len(column.values) for column in expected[2].values()] == [259, 256, 1]
    for given in (rows, iter(rows)):
        assert _loaded(Dataset(("a", "b", "c"), given)) == expected


def test_trimming_to_256_values_gives_bytes():
    """257 raw values of which two trim to the same text load as 256 values
    coded in bytes; 258 raw values that trim to 257 stay an array."""
    rows = [[f"v{r % 256}", f"v{r % 257}"] for r in range(3 * B)]
    rows[2 * B + 1] = [" v7", "v7\t"]
    raw = _loaded(Dataset(("a", "b"), rows))
    assert [len(column.values) for column in raw[2].values()] == [257, 258]
    expected = _assert_loads(b"".join(map(_encode_row, [["a", "b"]] + rows)))
    assert [len(column.values) for column in expected[2].values()] == [256, 257]


@pytest.mark.parametrize(
    "text,message",
    [
        ("a,b\n" + " x,y \n" * (3 * B), None),
        ("a,b\n" + "x,y\n" * (2 * B) + "z\n", f"t: row {2 * B + 1} has 1 cells, expected 2"),
    ],
    ids=["loaded", "rejected"],
)
def test_load_leaves_no_cyclic_garbage(text, message):
    """A load, also one rejected in a later block, frees what it made by
    reference counting alone: nothing is left for the cycle collector."""
    gc.collect()
    gc.disable()
    try:
        try:
            load_text(text)
            error = None
        except IngestError as exc:
            error = str(exc)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert error == message
    assert garbage == 0


@pytest.mark.parametrize("quoted", [None, 2 * B + 1, 3 * B])
def test_csv_module_reads_only_from_the_first_batch_it_must(tmp_path, monkeypatch, quoted):
    """Chunks of plain lines never reach csv.reader, so a fast path that is
    never taken fails here: a file without quotes, also one with CRLF line
    ends and a byte-order mark, is read without it, and one with a quoted cell
    gives it the lines from the chunk that holds the cell, which start at most
    a chunk before the cell."""
    lines = ["a,b\n"] + [f"v{r % 7},w{r}\n" for r in range(1, 4 * B + 1)]
    if quoted:
        lines[quoted] = '"Flu",x\n'
    reader, seen = csv.reader, []

    def spy(lines, *args, **kwargs):
        lines = iter(lines)
        seen.append(next(lines))
        return reader(itertools.chain([seen[-1]], lines), *args, **kwargs)

    path = tmp_path / "t.csv"
    for bom, newline in (b"", "\n"), (b"", "\r\n"), (codecs.BOM_UTF8, "\r\n"):
        data = bom + "".join(lines).replace("\n", newline).encode()
        path.write_bytes(data)
        expected = _reference_load(path)
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(csv, "reader", spy)
            assert _loaded(load_csv(path)) == expected
        if quoted is None:
            assert seen == []
        else:
            start, cell = data.index(seen[0].encode()), data.index(b'"Flu"')
            assert len(seen) == 1 and cell - _CHUNK_BYTES <= start <= cell


def _odd_csv(width, drawn, edge):
    """A file of a header of ``width`` names, then, if ``edge`` is not None, a
    row that ends ``edge`` bytes before a chunk edge, then ``drawn``, then
    plain rows past a chunk."""
    text = ",".join(f"c{i}" for i in range(width)) + "\n"
    if edge is not None:
        text += "x" * (_CHUNK_BYTES - edge - len(text) - 2 * width + 1) + ",x" * (width - 1) + "\n"
    return (text + drawn + (",".join("x" * width) + "\n") * (_CHUNK_BYTES // 4)).encode()


@st.composite
def _odd_text(draw):
    """``_odd_csv`` of a width of 2 or 3; up to three lines of that many cells,
    each perhaps with a piece put in, a comma taken out or another line end;
    and None, or the number of their bytes that come before a chunk edge."""
    width = draw(st.integers(2, 3))
    plain = ",".join("y" * width)
    text = ""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(plain)))
        piece = draw(st.sampled_from(["", '"', "\r", "\n", "\x00", ",", "é"]))
        line = plain[:at] + piece + plain[at:]
        if draw(st.booleans()):
            line = line.replace(",", "", 1)
        text += line + draw(st.sampled_from(["\n", "", "\r\n"]))
    return _odd_csv(width, text, draw(st.none() | st.integers(0, len(text.encode()))))


@settings(deadline=None)  # writes a file per example
@given(st.lists(_CSV_PIECE, max_size=24).map(b"".join))
# The first two bytes of a byte-order mark alone.
@example(codecs.BOM_UTF8[:2])
def test_fuzzed_csv_is_loaded_or_rejected(data):
    """Any bytes load from a file and, if they decode, from a text stream as
    the naive reader reads them: the same columns, or the same error."""
    _assert_loads(data)


@settings(max_examples=300, deadline=None)  # writes a file per example
@given(_odd_text())
# Lines that pass every check of the fast path but one, each a different one.
@example(_odd_csv(2, "\ny,y", None))
@example(_odd_csv(2, ",y,y\ny,y\n", None))
@example(_odd_csv(2, ",y,y\nyy\n", None))
@example(_odd_csv(2, "\x00yy\n,y,y\n", None))
# A CRLF line end, and a character of two UTF-8 bytes, across a chunk edge.
@example(_odd_csv(2, "y,y\r\ny,y\n", 4))
@example(_odd_csv(2, "y,é\ny,y\n", 3))
def test_stream_lines_load_as_the_csv_module_reads_them(data):
    """Whatever text a stream's read returns after a header, also across a
    chunk edge, load_csv gives the columns csv.reader reads from its lines as
    a file opened with ``newline=""`` splits them, or the error the naive
    reader meets first; a chunk of plain lines follows. A file of the text,
    read in chunks of bytes, loads the same."""
    _assert_loads(data)


@settings(deadline=None)  # writes a file per example
@given(_faulty_csv())
# A bad byte after a byte-order mark, and one inside a character that starts
# one byte before a chunk edge.
@example(codecs.BOM_UTF8 + b"c0,c1\n" + b"ab,ab\n" * 9 + b"ab,\xff\n" + b"ab,ab\n" * 3 * B)
@example(b"c0,c1\n" + b"ab,ab\n" * 681 + b"ab,\xe2\x82x\n" + b"ab,ab\n" * B)
# A mark dropped before a bad byte in the first chunk, and one kept that
# starts a later chunk.
@example(codecs.BOM_UTF8 + b"a,a\n\xff\n")
@example(b"c0,c1\n" + b"ab,ab\n" * 681 + b"ab,x\xef\xbb\xbfy\n" + b"ab,ab\n" * B)
def test_csv_load_equals_naive_reference(data):
    """Across block boundaries, load_csv gives the naive reader's columns, or
    the error the naive reader meets first."""
    _assert_loads(data)
