"""Domain type invariants: scales, ratings, datasets, matrices, validation."""

import copy
import itertools
import pickle
import random
import re
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_metrics as naive
from conftest import heap, qi, sens
from reident_risk.engine import (
    DEFAULT_EXPLOITABILITY_MATRIX,
    DEFAULT_RISK_MATRIX,
    AssessmentOptions,
    CombinationStrategy,
)
from reident_risk.ingest import MetadataDocument
from reident_risk.model import (
    _BLOCK_ROWS,
    AttributeMeta,
    AttributeRole,
    Coder,
    Column,
    Dataset,
    ExploitabilityLevel,
    ExposureLevel,
    InferenceLevel,
    RiskLevel,
    ScaleError,
    ScaleMatrix,
    SeverityLevel,
    SeverityRating,
    global_severity,
    validate_meta,
)

ALL_SCALES = [SeverityLevel, ExposureLevel, InferenceLevel, ExploitabilityLevel, RiskLevel]
MISSPELT = {"bodily": 1, "material": 1, "moral": 1, "moarl": 4}

# Every text each scale accepts, by level: label, name, display, and for
# exposure the long names and the swapped spellings RI/EI.
SPELLINGS = {
    SeverityLevel: [
        ["Negligible", "NEGLIGIBLE", "1-Negligible"],
        ["Limited", "LIMITED", "2-Limited"],
        ["Significant", "SIGNIFICANT", "3-Significant"],
        ["Maximum", "MAXIMUM", "4-Maximum"],
    ],
    ExposureLevel: [
        ["IR", "INTERNAL_RESTRICTED", "1-IR", "Internal Restricted", "RI", "1-RI"],
        ["IE", "INTERNAL_EXTENDED", "2-IE", "Internal Extended", "EI", "2-EI"],
        ["ER", "EXTERNAL_RESTRICTED", "3-ER", "External Restricted"],
        ["EE", "EXTERNAL_EXTENDED", "4-EE", "External Extended"],
    ],
    InferenceLevel: [
        ["Weak", "WEAK", "1-Weak"],
        ["Moderate", "MODERATE", "2-Moderate"],
        ["Severe", "SEVERE", "3-Severe"],
        ["Critical", "CRITICAL", "4-Critical"],
    ],
    ExploitabilityLevel: [
        ["Very Difficult", "VERY_DIFFICULT", "1-Very Difficult"],
        ["Difficult", "DIFFICULT", "2-Difficult"],
        ["Easy", "EASY", "3-Easy"],
        ["Very Easy", "VERY_EASY", "4-Very Easy"],
    ],
    RiskLevel: [
        ["Low", "LOW", "1-Low"],
        ["Medium", "MEDIUM", "2-Medium"],
        ["High", "HIGH", "3-High"],
        ["Critical", "CRITICAL", "4-Critical"],
    ],
}
ACCEPTED = [
    (scale, text, level)
    for scale, levels in SPELLINGS.items()
    for level, texts in enumerate(levels, 1)
    for text in texts
]
# Near misses: a swapped spelling at the wrong level, other separators, a
# long name with a level prefix, and spaces inside a word. A message shows
# the text as given, padding included.
NEAR_MISSES = [
    "3-RI", "4-EI", "1-EI", " 2-RI ", "internal-restricted", "internal__restricted",
    "1-Internal Restricted", "very-easy", "Very  Easy", "4 - Critical", "4-", "1-", "", "   ", "I R",
]


class TestScales:
    @pytest.mark.parametrize("scale", ALL_SCALES)
    def test_label_round_trip(self, scale):
        for member in scale:
            assert scale.parse(member.label) is member
            assert scale.parse(int(member)) is member
            assert scale.parse(member.display) is member

    @pytest.mark.parametrize("scale", ALL_SCALES)
    def test_labels_bijective(self, scale):
        labels = {m.label for m in scale}
        assert len(labels) == 4

    @pytest.mark.parametrize("scale", ALL_SCALES)
    def test_out_of_range_rejected(self, scale):
        for raw, message in [
            (0, "level 0 out of range 1..4"),
            (5, "level 5 out of range 1..4"),
            ("no-such-label", "unknown label 'no-such-label'"),
            (True, "expected level 1..4 or label, got bool"),
            (2.0, "expected int or str, got float"),
            (None, "expected int or str, got NoneType"),
        ]:
            with pytest.raises(ScaleError) as caught:
                scale.parse(raw)
            assert str(caught.value) == f"{scale.__name__}: {message}"

    def test_display_format(self):
        assert RiskLevel.CRITICAL.display == "4-Critical"
        assert SeverityLevel.NEGLIGIBLE.display == "1-Negligible"
        assert ExploitabilityLevel.VERY_EASY.display == "4-Very Easy"
        assert ExploitabilityLevel.VERY_DIFFICULT.display == "1-Very Difficult"
        assert InferenceLevel.WEAK.display == "1-Weak"

    def test_exposure_labels(self):
        assert [m.label for m in ExposureLevel] == ["IR", "IE", "ER", "EE"]

    @pytest.mark.parametrize("scale, text, level", ACCEPTED)
    def test_accepted_spelling(self, scale, text, level):
        for variant in (text, text.lower(), text.upper(), text.swapcase(), f" \t{text}  \n"):
            assert scale.parse(variant) is scale(level)

    @pytest.mark.parametrize("scale", ALL_SCALES)
    def test_only_its_own_spellings_accepted(self, scale):
        own = {text.lower() for levels in SPELLINGS[scale] for text in levels}
        others = {text for _, text, _ in ACCEPTED if text.lower() not in own}
        for text in sorted(others) + NEAR_MISSES:
            with pytest.raises(ScaleError) as caught:
                scale.parse(text)
            assert str(caught.value) == f"{scale.__name__}: unknown label {text!r}"


class TestSeverityRating:
    def test_global_is_component_max(self):
        # The sensitive attribute in the bundled examples is rated (1, 3, 4).
        assert global_severity(SeverityRating(1, 3, 4)) is SeverityLevel.MAXIMUM
        assert global_severity(SeverityRating(1, 1, 1)) is SeverityLevel.NEGLIGIBLE
        assert global_severity(SeverityRating(2, 2, 2)) is SeverityLevel.LIMITED

    def test_permutation_invariant(self):
        for levels in itertools.permutations((1, 3, 4)):
            assert global_severity(SeverityRating(*levels)) is SeverityLevel.MAXIMUM

    def test_components_validated(self):
        with pytest.raises(ScaleError):
            SeverityRating(0, 1, 1)
        with pytest.raises(ScaleError):
            SeverityRating(1, 5, 1)

    def test_accepts_labels(self):
        r = SeverityRating("negligible", "significant", "maximum")
        assert r.components() == (1, 3, 4)


class TestDataset:
    def test_basic_construction(self):
        d = Dataset(attributes=("a", "b"), rows=(("1", "2"), ("3", "4")), source_label="t")
        assert d.row_count == 2
        assert d.columns["a"] == Column(("1", "3"), bytes([0, 1]), [1, 1])
        d = Dataset(["a"], [["x"], ["y"], ["x"]])
        assert d.columns["a"] == Column(("x", "y"), bytes([0, 1, 0]), [2, 1])
        d = Dataset(("a",), [(" x",), ("x",)])  # cells are kept as given
        assert d.columns["a"] == Column((" x", "x"), bytes([0, 1]), [1, 1])

    @pytest.mark.parametrize(
        "attributes,rows,message",
        [
            ("ab", (), "attributes: expected an array of strings, got 'ab'"),
            (("a", 1), (), "attributes: member 1 is not a string"),
            (("a",), "xy", "rows: expected an array of rows, got 'xy'"),
            (("a",), {("1",)}, "rows: expected an array of rows, got {('1',)}"),
            (("a",), {"1": "2"}, "rows: expected an array of rows, got {'1': '2'}"),
            (("a", "b"), ("xy",), "row 1: expected an array of strings, got 'xy'"),
            (("a",), (("1",), (None,)), "row 2: member None is not a string"),
            (("a",), ((1,),), "row 1: member 1 is not a string"),
            (("a", "b"), (("1", "2"), ("3",)), "row 2 has 1 cells, expected 2"),
            (("a", "a"), (), "duplicate attribute names: a"),
            (("a", ""), (), "attribute names must be non-empty"),
        ],
        ids=[
            "name-string",
            "name-int",
            "rows-string",
            "rows-set",
            "rows-dict",
            "row-string",
            "cell-none",
            "cell-int",
            "ragged",
            "name-duplicate",
            "name-empty",
        ],
    )
    def test_non_strings_rejected(self, attributes, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(attributes=attributes, rows=rows)

    # Around both block boundaries, and a middle row of the second block.
    @pytest.mark.parametrize(
        "row",
        [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, _BLOCK_ROWS + 100]
        + [2 * _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1],
    )
    @pytest.mark.parametrize(
        "fault,message",
        [
            (("x",), "row {} has 1 cells, expected 2"),
            (("x", 1), "row {}: member 1 is not a string"),
            ((None, "y"), "row {}: member None is not a string"),
            (("x", b"x"), "row {}: member b'x' is not a string"),
        ],
        ids=["ragged", "cell-int", "cell-none", "cell-bytes"],
    )
    def test_fault_named_across_blocks(self, row, fault, message):
        rows = [("x", "y")] * (3 * _BLOCK_ROWS)
        rows[row - 1] = fault
        for given in (rows, iter(rows)):
            with pytest.raises(ValueError, match=f"^{re.escape(message.format(row))}$"):
                Dataset(attributes=("a", "b"), rows=given)

    def test_string_subclass_cell_accepted(self):
        class Text(str):
            pass

        rows = [("x", "y")] * (3 * _BLOCK_ROWS)
        rows[_BLOCK_ROWS + 100] = ("x", Text("z"))
        d = Dataset(("a", "b"), rows)
        assert d.columns["b"].values == ("y", "z")
        assert d.columns["b"].counts == [3 * _BLOCK_ROWS - 1, 1]

    def test_encoding_fault_found_once_rows_are_read(self):
        """A cell that does not encode as UTF-8 is named by its column after
        every row is read, so a ragged row after it is reported first."""
        message = "attribute 'b': '\\ud800' does not encode as UTF-8"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(("a", "b"), [("x", "\ud800")])
        with pytest.raises(ValueError, match="^row 2 has 1 cells, expected 2$"):
            Dataset(("a", "b"), [("x", "\ud800"), ("y",)])

    def test_iterator_codes_like_tuple(self):
        rows = [(str(i % 7), str(i % 300), str(i // 100)) for i in range(2 * _BLOCK_ROWS)]
        from_tuple = Dataset(("a", "b", "c"), tuple(rows))
        assert Dataset(("a", "b", "c"), iter(rows)) == from_tuple
        assert Dataset(("a", "b", "c"), (row for row in rows)) == from_tuple
        assert from_tuple.row_count == 2 * _BLOCK_ROWS
        assert from_tuple.columns["b"].values == tuple(map(str, range(300)))
        assert from_tuple.columns["b"].counts == [2] * 212 + [1] * 88

    def test_block_that_passes_255_codes_is_looked_up_once(self):
        """The block in which code 256 appears moves the codes to an
        ``array('H')``, yet every item in it is hashed as often as one in an
        earlier block; the block in which code 65,536 appears moves them to an
        ``array('I')`` with each of its codes once."""
        hashes = Counter()

        class Item(int):
            def __hash__(self):
                hashes[int(self)] += 1
                return int.__hash__(self)

        coder = Coder()
        coder.extend([Item(i) for i in range(200)])
        coder.extend([Item(i) for i in range(200, 300)])
        coder.extend([Item(0)])  # a one-item block
        codes, counts = coder.done()
        assert codes == array("H", [*range(300), 0]) and counts == [2] + [1] * 299
        assert {hashes[i] for i in range(1, 300)} == {hashes[1]}
        wide = Coder()
        wide.extend(range(65_500))
        wide.extend([0, *range(65_500, 65_600)])  # code 65,536 in mid-block
        assert wide.done()[0] == array("I", [*range(65_500), 0, *range(65_500, 65_600)])
        one = Coder()
        one.extend(["x"])
        assert one.done() == (b"\x00", [1])

    def test_codes_keep_two_bytes_per_cell(self):
        """20,000 rows of 4 columns of at most 12 values each: one byte per
        coded cell, against an 8-byte slot in a list."""
        pool = [tuple(f"v{(i * (c + 2)) % (c + 9)}" for c in range(4)) for i in range(97)]
        rows, built = (pool[i % 97] for i in range(20_000)), []
        kept = heap(lambda: built.append(Dataset(("a", "b", "c", "d"), rows)))[1]
        assert max(len(column.values) for column in built[0].columns.values()) == 12
        assert kept / (20_000 * 4) < 2

    def test_codes_past_256_values_keep_no_int_object(self):
        """100,000 rows of a column of 20,000 values, made before the load:
        under 8 bytes a row, its tuple of values and its counts included, where
        a list of codes would take 8 bytes a row and a 32-byte int a value."""
        values = [f"v{i}" for i in range(20_000)]
        built = []
        rows = zip(itertools.islice(itertools.cycle(values), 100_000))
        kept = heap(lambda: built.append(Dataset(("a",), rows)))[1]
        assert built[0].columns["a"].values == tuple(values)
        assert kept / 100_000 < 8, f"Dataset: {kept / 100_000:.1f} bytes per row"

    @given(
        st.integers(0, 2**32),
        st.lists(st.integers(1, 3 * _BLOCK_ROWS), min_size=1, max_size=4),
        st.integers(2 * _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS),
    )
    @settings(deadline=None, max_examples=50)
    def test_counts_equal_naive_counter(self, seed, steps, rows):
        # Column i draws from the first 1 + r // steps[i] values at row r, so
        # values first show in any block and earlier ones keep recurring.
        rng = random.Random(seed)
        names = tuple(f"c{i}" for i in range(len(steps)))
        table = [tuple(f"v{rng.randrange(1 + r // step)}" for step in steps) for r in range(rows)]
        for given_rows in (table, iter(table)):
            d = Dataset(names, given_rows)
            for name, cells in zip(names, zip(*table)):
                expected = Counter(cells)  # keys in first-occurrence order
                assert d.columns[name].values == tuple(expected)
                assert d.columns[name].counts == list(expected.values())
                assert naive.column(d, name) == cells

    @pytest.mark.parametrize(
        "second,error,message",
        [(("x",), ValueError, "row 2 has 1 cells, expected 2"), (("x", "z"), RuntimeError, "gone")],
        ids=["earlier-fault-first", "iterator-error"],
    )
    def test_iterator_error_raised_after_rows_before_it(self, second, error, message):
        def rows():
            yield ("x", "y")
            yield second
            raise RuntimeError("gone")

        with pytest.raises(error, match=f"^{message}$"):
            Dataset(("a", "b"), rows())

    @pytest.mark.parametrize("label", [5, None])
    def test_non_string_label_rejected(self, label):
        with pytest.raises(ValueError, match=f"^source_label: expected a string, got {label}$"):
            Dataset(attributes=("a",), rows=(), source_label=label)

    def test_immutable(self):
        d = Dataset(attributes=("a",), rows=(("1",),))
        with pytest.raises(AttributeError):
            d.attributes = ("b",)

    def test_unknown_attribute(self):
        d = Dataset(attributes=("a",), rows=(("1",),))
        with pytest.raises(KeyError):
            d.columns["zzz"]


class TestScaleMatrix:
    def test_valid_matrix(self):
        m = ScaleMatrix("m", ((1, 1, 2, 2), (1, 2, 2, 3), (2, 2, 3, 3), (2, 3, 3, 4)))
        assert m.lookup(1, 1) == 1
        assert m.lookup(4, 4) == 4
        assert m.lookup(2, 4) == 3

    def test_row_monotonicity_enforced(self):
        with pytest.raises(ScaleError, match="decreases"):
            ScaleMatrix("m", ((1, 1, 1, 1), (1, 2, 1, 2), (2, 2, 2, 2), (3, 3, 3, 3)))

    def test_column_monotonicity_enforced(self):
        with pytest.raises(ScaleError, match="decreases"):
            ScaleMatrix("m", ((2, 2, 2, 2), (1, 2, 2, 2), (2, 2, 2, 2), (3, 3, 3, 3)))

    def test_out_of_range_cell_rejected(self):
        with pytest.raises(ScaleError, match="out of range"):
            ScaleMatrix("m", ((1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 5), (1, 1, 1, 1)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ScaleError, match="4x4"):
            ScaleMatrix("m", ((1, 1, 1), (1, 1, 1), (1, 1, 1)))

    @pytest.mark.parametrize("cell", [2.7, True, "2"])
    def test_cell_must_be_an_integer(self, cell):
        cells = [[1, 1, 2, 2], [1, 2, 2, 3], [2, 2, 3, 3], [2, 3, 3, 4]]
        cells[1][2] = cell
        with pytest.raises(ScaleError, match=re.escape(f"cell (2,3) value {cell!r} out of range")):
            ScaleMatrix("m", cells)

    @pytest.mark.parametrize("name", [3, "", None])
    def test_name_must_be_a_non_empty_string(self, name):
        shown = re.escape(f"matrix name: expected a non-empty string, got {name!r}")
        with pytest.raises(ScaleError, match=f"^{shown}$"):
            ScaleMatrix(name=name, cells=((1,) * 4,) * 4)

    def test_lookup_range_checked(self):
        m = ScaleMatrix("m", ((1,) * 4,) * 4)
        # Only an integer 1..4 is a level: nothing is truncated or parsed.
        for level in (0, 5, 2.7, 1.0, "3", True):
            for row, col in ((level, 1), (1, level)):
                shown = re.escape(f"lookup levels {row!r}, {col!r} are not integers 1..4")
                with pytest.raises(ScaleError, match=shown):
                    m.lookup(row, col)
        assert m.lookup(InferenceLevel.CRITICAL, ExposureLevel.INTERNAL_RESTRICTED) == 1


def _meta_for(dataset_attrs):
    return [sens(name) if name == "Disease" else qi(name, "EE") for name in dataset_attrs]


class TestValidateMeta:
    def test_consistent_metadata_passes(self, initial, reference_meta):
        outcome = validate_meta(initial, reference_meta.attributes)
        assert outcome.errors == ()
        assert outcome.warnings == ()

    def test_unknown_attribute_is_error(self, initial):
        meta = _meta_for(initial.attributes) + [
            AttributeMeta(name="Zip", role=AttributeRole.OTHER)
        ]
        outcome = validate_meta(initial, meta)
        assert any("unknown attribute" in e and "Zip" in e for e in outcome.errors)

    def test_missing_metadata_is_error(self, initial):
        meta = [m for m in _meta_for(initial.attributes) if m.name != "Age"]
        outcome = validate_meta(initial, meta)
        assert any("no metadata" in e and "Age" in e for e in outcome.errors)

    def test_missing_severity_is_error(self, initial):
        meta = [m for m in _meta_for(initial.attributes) if m.name != "Disease"]
        meta.append(AttributeMeta(name="Disease", role=AttributeRole.SENSITIVE))
        outcome = validate_meta(initial, meta)
        assert any("missing severity" in e for e in outcome.errors)

    def test_missing_exposure_is_error(self, initial):
        meta = [m for m in _meta_for(initial.attributes) if m.name != "Age"]
        meta.append(AttributeMeta(name="Age", role=AttributeRole.QUASI_IDENTIFIER))
        outcome = validate_meta(initial, meta)
        assert any("missing exposure" in e for e in outcome.errors)

    def test_duplicate_metadata_is_error(self, initial):
        meta = _meta_for(initial.attributes)
        meta.append(meta[0])
        outcome = validate_meta(initial, meta)
        assert any("duplicate" in e for e in outcome.errors)

    def test_unused_value_severity_is_warning(self, initial):
        meta = [m for m in _meta_for(initial.attributes) if m.name != "Disease"]
        meta.append(sens("Disease", overrides={"Scurvy": (4, 4, 4)}))
        outcome = validate_meta(initial, meta)
        assert outcome.errors == ()
        assert any("never used" in w and "Scurvy" in w for w in outcome.warnings)

    def test_no_quasi_identifiers_is_warning(self, initial):
        meta = [
            sens(n, (1, 1, 1)) if n == "Disease" else AttributeMeta(name=n, role="other")
            for n in initial.attributes
        ]
        outcome = validate_meta(initial, meta)
        assert any("no quasi-identifiers" in w for w in outcome.warnings)


class TestAttributeMeta:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            AttributeMeta(name="", role=AttributeRole.OTHER)

    def test_exposure_coerced_like_severity(self):
        for raw in (4, "EE", ExposureLevel.EXTERNAL_EXTENDED):
            m = AttributeMeta(name="x", role=AttributeRole.QUASI_IDENTIFIER, exposure=raw)
            assert m.exposure is ExposureLevel.EXTERNAL_EXTENDED
        with pytest.raises(ScaleError):
            AttributeMeta(name="x", role=AttributeRole.QUASI_IDENTIFIER, exposure=5)

    def test_role_coerced(self):
        assert AttributeMeta(name="x", role="sensitive").role is AttributeRole.SENSITIVE
        assert AttributeRole.parse(AttributeRole.SENSITIVE) is AttributeRole.SENSITIVE

    def test_name_stripped(self):
        assert AttributeMeta(name=" x ", role="other").name == "x"

    @pytest.mark.parametrize(
        "field,value,shown",
        [
            ("name", 3, "non-empty string"),
            ("severity", (1, 2, 3), "(1, 2, 3)"),
            ("severity", MISSPELT, "'moarl'"),
            ("severity", {"bodily": 1, "material": 1}, "['bodily', 'material']"),
            ("value_severity", {"HIV": MISSPELT}, "'HIV'"),
            ("value_severity", {1: SeverityRating(1, 1, 1)}, "key 1"),
        ],
    )
    def test_bad_value_rejected(self, field, value, shown):
        with pytest.raises(ValueError) as caught:
            AttributeMeta(**{"name": "x", "role": AttributeRole.SENSITIVE, field: value})
        assert str(caught.value).startswith(f"{field}: ") and shown in str(caught.value)

    def test_value_severity_immutable(self):
        m = AttributeMeta(
            name="x",
            role=AttributeRole.SENSITIVE,
            severity=SeverityRating(1, 1, 1),
            value_severity={"a": SeverityRating(2, 2, 2)},
        )
        with pytest.raises(TypeError):
            m.value_severity["b"] = SeverityRating(1, 1, 1)


# The six types that check their arguments when built share one contract:
# pinned reprs (error messages quote them), immutability, equality only with
# their own type, and construction by position or keyword with defaults.
_RATING = SeverityRating(1, "limited", moral=3)
_RATING_REPR = (
    "SeverityRating(bodily=<SeverityLevel.NEGLIGIBLE: 1>, material=<SeverityLevel.LIMITED: 2>,"
    " moral=<SeverityLevel.SIGNIFICANT: 3>)"
)
_ATTRIBUTE = AttributeMeta("Age", "quasi_identifier", exposure="EE")
_ATTRIBUTE_REPR = (
    "AttributeMeta(name='Age', role=<AttributeRole.QUASI_IDENTIFIER: 'quasi_identifier'>,"
    " exposure=<ExposureLevel.EXTERNAL_EXTENDED: 4>, severity=None,"
    " value_severity=mappingproxy({}))"
)
_DATASET = Dataset(("a", "b"), [("1", "2"), ("3", "2")], "t.csv")
_DATASET_REPR = "Dataset(attributes=('a', 'b'), source_label='t.csv', row_count=2)"
_GRID = [[1, 1, 2, 2], [1, 2, 2, 3], [2, 2, 3, 3], [2, 3, 3, 4]]
_MATRIX = ScaleMatrix("exploitability", _GRID)
_MATRIX_REPR = (
    "ScaleMatrix(name='exploitability',"
    " cells=((1, 1, 2, 2), (1, 2, 2, 3), (2, 2, 3, 3), (2, 3, 3, 4)))"
)
_OPTIONS = AssessmentOptions(flag_threshold=2, explicit_combinations=[["a", "b"]], notes=["n"])
_OPTIONS_REPR = (
    "AssessmentOptions(flag_threshold=<SeverityLevel.LIMITED: 2>,"
    " combination_strategy=<CombinationStrategy.PER_LEVEL: 'per_level'>,"
    " explicit_combinations=(('a', 'b'),), exploitability_matrix=" + _MATRIX_REPR + ","
    " risk_matrix=ScaleMatrix(name='risk',"
    " cells=((1, 1, 2, 2), (1, 2, 2, 3), (2, 2, 3, 4), (2, 3, 4, 4))), notes=('n',))"
)
_DOCUMENT = MetadataDocument(1, (_ATTRIBUTE,), _OPTIONS)
_DOCUMENT_REPR = (
    f"MetadataDocument(version=1, attributes=({_ATTRIBUTE_REPR},), options={_OPTIONS_REPR})"
)
_RECORDS = {
    "SeverityRating": (_RATING, _RATING_REPR, ("bodily", "material", "moral")),
    "AttributeMeta": (
        _ATTRIBUTE,
        _ATTRIBUTE_REPR,
        ("name", "role", "exposure", "severity", "value_severity"),
    ),
    "Dataset": (_DATASET, _DATASET_REPR, ("attributes", "source_label", "row_count")),
    "ScaleMatrix": (_MATRIX, _MATRIX_REPR, ("name", "cells")),
    "AssessmentOptions": (
        _OPTIONS,
        _OPTIONS_REPR,
        (
            "flag_threshold",
            "combination_strategy",
            "explicit_combinations",
            "exploitability_matrix",
            "risk_matrix",
            "notes",
        ),
    ),
    "MetadataDocument": (_DOCUMENT, _DOCUMENT_REPR, ("version", "attributes", "options")),
}


@pytest.mark.parametrize("name", _RECORDS)
class TestRecordContract:
    def test_repr(self, name):
        record, text, _ = _RECORDS[name]
        assert repr(record) == text

    def test_assignment_and_deletion_raise(self, name):
        record, text, fields = _RECORDS[name]
        for field in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert repr(record) == text

    def test_not_equal_to_a_tuple_of_its_values(self, name):
        record, _, fields = _RECORDS[name]
        values = tuple(getattr(record, field) for field in fields)
        assert record != values and values != record
        assert record == record and not record != record


OPTIONS_DEFAULTS = (
    SeverityLevel.SIGNIFICANT,
    CombinationStrategy.PER_LEVEL,
    (),
    DEFAULT_EXPLOITABILITY_MATRIX,
    DEFAULT_RISK_MATRIX,
    (),
)


@pytest.mark.parametrize(
    "build,by_position,by_keyword,missing,unknown",
    [
        (SeverityRating, (1, 2, 3), {"moral": 3, "material": 2}, (1, 2), {"severe": 1}),
        (
            AttributeMeta,
            ("x", "other"),
            {"value_severity": {}, "exposure": None, "role": "other"},
            ("x",),
            {"kind": "other"},
        ),
        (
            Dataset,
            (("a",), [("1",)]),
            {"source_label": "", "rows": [("1",)]},
            (("a",),),
            {"label": "t"},
        ),
        (ScaleMatrix, ("risk", _GRID), {"cells": _GRID}, ("risk",), {"grid": _GRID}),
        (AssessmentOptions, OPTIONS_DEFAULTS, {"notes": ()}, None, {"threshold": 3}),
        (
            MetadataDocument,
            (1, (), _OPTIONS),
            {"options": _OPTIONS, "attributes": ()},
            (1, ()),
            {"matrices": None},
        ),
    ],
    ids=list(_RECORDS),
)
def test_built_by_position_or_keyword(build, by_position, by_keyword, missing, unknown):
    """``by_keyword`` names every argument but the first, which is passed
    both by position and by its name."""
    record = build(*by_position)
    first = _RECORDS[build.__name__][2][0]
    assert build(by_position[0], **by_keyword) == record
    assert build(**{first: by_position[0]}, **by_keyword) == record
    if missing is not None:
        with pytest.raises(TypeError):
            build(*missing)
    with pytest.raises(TypeError):
        build(*by_position, **unknown)
    with pytest.raises(TypeError):
        build(*by_position, None, None, None, None, None, None)
    with pytest.raises(TypeError):  # the same argument twice
        build(*by_position, **{first: by_position[0]})


@pytest.mark.parametrize(
    "build",
    [
        lambda: SeverityRating("negligible", 2, 3),
        lambda: ScaleMatrix("exploitability", tuple(map(tuple, _GRID))),
        lambda: AssessmentOptions("limited", "per_level", [("a", "b")], notes=("n",)),
        lambda: Dataset(["a", "b"], iter([["1", "2"], ["3", "2"]]), source_label="t.csv"),
    ],
    ids=["SeverityRating", "ScaleMatrix", "AssessmentOptions", "Dataset"],
)
def test_equal_values_hash_equal(build):
    record = build()
    assert record == _RECORDS[type(record).__name__][0]
    assert hash(record) == hash(_RECORDS[type(record).__name__][0])


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Dataset(("a", "\ud800"), ()), "attributes: '\\ud800'"),
        (lambda: Dataset(("a",), (), "h\udcff.csv"), "source_label: 'h\\udcff.csv'"),
        (
            lambda: Dataset(("a", "b"), [("é", "x")] * 2 * _BLOCK_ROWS + [("x", "é\udfff")]),
            "attribute 'b': 'é\\udfff'",
        ),
        (lambda: AttributeMeta(" \ud800 ", "other"), "name: '\\ud800'"),
        (
            lambda: AttributeMeta("x", "other", value_severity={"\ud800": _RATING}),
            "value_severity: '\\ud800'",
        ),
        (lambda: AssessmentOptions(notes=["é", "\udc80"]), "notes: '\\udc80'"),
        (
            lambda: AssessmentOptions(explicit_combinations=[["a", "b\ud800"]]),
            "explicit_combinations: 'b\\ud800'",
        ),
    ],
    ids=["header", "label", "cell", "name", "override", "note", "combination"],
)
def test_text_that_does_not_encode_is_rejected(build, message):
    """A lone surrogate cannot be written to a report, so it is rejected where
    it enters, naming the field; other non-ASCII text is kept."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)} does not encode as UTF-8$"):
        build()


@pytest.mark.parametrize("record", [_RATING, _MATRIX, _OPTIONS], ids=type)
def test_pickle_and_deepcopy_round_trip(record):
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert copied == record and repr(copied) == repr(record)
        assert hash(copied) == hash(record)
        with pytest.raises(AttributeError):
            copied.name = "x"


@pytest.mark.parametrize("record", [_ATTRIBUTE, _DATASET, _DOCUMENT], ids=type)
def test_mappingproxy_holders_do_not_pickle(record):
    with pytest.raises(TypeError):
        pickle.dumps(record)
    if record is not _DATASET:
        with pytest.raises(TypeError):
            hash(record)
