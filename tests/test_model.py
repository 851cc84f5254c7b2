"""Domain type invariants: scales, ratings, datasets, matrices, validation."""

import re

import pytest

from reident_risk.model import (
    AttributeMeta,
    AttributeRole,
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
        with pytest.raises(ScaleError):
            scale.parse(0)
        with pytest.raises(ScaleError):
            scale.parse(5)
        with pytest.raises(ScaleError):
            scale.parse("no-such-label")

    def test_display_format(self):
        assert RiskLevel.CRITICAL.display == "4-Critical"
        assert SeverityLevel.NEGLIGIBLE.display == "1-Negligible"
        assert ExploitabilityLevel.VERY_EASY.display == "4-Very Easy"
        assert ExploitabilityLevel.VERY_DIFFICULT.display == "1-Very Difficult"
        assert InferenceLevel.WEAK.display == "1-Weak"

    def test_exposure_labels(self):
        assert [m.label for m in ExposureLevel] == ["IR", "IE", "ER", "EE"]

    def test_exposure_variant_spellings(self):
        assert ExposureLevel.parse("RI") is ExposureLevel.INTERNAL_RESTRICTED
        assert ExposureLevel.parse("EI") is ExposureLevel.INTERNAL_EXTENDED
        assert ExposureLevel.parse("1-RI") is ExposureLevel.INTERNAL_RESTRICTED
        assert ExposureLevel.parse("2-EI") is ExposureLevel.INTERNAL_EXTENDED
        assert ExposureLevel.parse("internal extended") is ExposureLevel.INTERNAL_EXTENDED
        assert ExposureLevel.parse("External Extended") is ExposureLevel.EXTERNAL_EXTENDED

    def test_severity_cnil_labels(self):
        assert SeverityLevel.parse("negligible") is SeverityLevel.NEGLIGIBLE
        assert SeverityLevel.parse("limited") is SeverityLevel.LIMITED
        assert SeverityLevel.parse("significant") is SeverityLevel.SIGNIFICANT
        assert SeverityLevel.parse("maximum") is SeverityLevel.MAXIMUM


class TestSeverityRating:
    def test_global_is_component_max(self):
        # The sensitive attribute in the bundled examples is rated (1, 3, 4).
        assert global_severity(SeverityRating(1, 3, 4)) is SeverityLevel.MAXIMUM
        assert global_severity(SeverityRating(1, 1, 1)) is SeverityLevel.NEGLIGIBLE
        assert global_severity(SeverityRating(2, 2, 2)) is SeverityLevel.LIMITED

    def test_permutation_invariant(self):
        levels = (1, 3, 4)
        results = {
            global_severity(SeverityRating(a, b, c))
            for a, b, c in [(1, 3, 4), (4, 3, 1), (3, 4, 1), (4, 1, 3), (1, 4, 3), (3, 1, 4)]
        }
        assert results == {SeverityLevel.MAXIMUM}
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
        assert d.column("b") == ("2", "4")
        assert d.columns["a"] == Column(("1", "3"), [0, 1], [1, 1])
        d = Dataset(["a"], [["x"], ["y"], ["x"]])
        assert d.columns["a"] == Column(("x", "y"), [0, 1, 0], [2, 1])

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="row 2"):
            Dataset(attributes=("a", "b"), rows=(("1", "2"), ("3",)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(attributes=("a", "a"), rows=())

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Dataset(attributes=("a", ""), rows=())

    @pytest.mark.parametrize(
        "attributes,rows,message",
        [
            ("ab", (), "attributes: expected an array of strings, got 'ab'"),
            (("a", 1), (), "attributes: member 1 is not a string"),
            (("a",), "xy", "rows: expected an array of rows, got 'xy'"),
            (("a", "b"), ("xy",), "row 1: expected an array of strings, got 'xy'"),
            (("a",), (("1",), (None,)), "row 2: member None is not a string"),
            (("a",), ((1,),), "row 1: member 1 is not a string"),
        ],
        ids=["name-string", "name-int", "rows-string", "row-string", "cell-none", "cell-int"],
    )
    def test_non_strings_rejected(self, attributes, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(attributes=attributes, rows=rows)

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
            d.column("zzz")


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

    def test_lookup_range_checked(self):
        m = ScaleMatrix("m", ((1,) * 4,) * 4)
        with pytest.raises(ScaleError):
            m.lookup(0, 1)
        with pytest.raises(ScaleError):
            m.lookup(1, 5)


def _meta_for(dataset_attrs):
    out = []
    for name in dataset_attrs:
        if name == "Disease":
            out.append(
                AttributeMeta(
                    name=name,
                    role=AttributeRole.SENSITIVE,
                    severity=SeverityRating(1, 3, 4),
                )
            )
        else:
            out.append(
                AttributeMeta(
                    name=name,
                    role=AttributeRole.QUASI_IDENTIFIER,
                    exposure=ExposureLevel.EXTERNAL_EXTENDED,
                )
            )
    return out


class TestValidateMeta:
    def test_consistent_metadata_passes(self, initial, reference_meta):
        outcome = validate_meta(initial, reference_meta.attributes)
        assert outcome.ok
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
        meta.append(
            AttributeMeta(
                name="Disease",
                role=AttributeRole.SENSITIVE,
                severity=SeverityRating(1, 3, 4),
                value_severity={"Scurvy": SeverityRating(4, 4, 4)},
            )
        )
        outcome = validate_meta(initial, meta)
        assert outcome.ok
        assert any("never used" in w and "Scurvy" in w for w in outcome.warnings)

    def test_no_quasi_identifiers_is_warning(self, initial):
        meta = [
            AttributeMeta(
                name=n,
                role=AttributeRole.SENSITIVE if n == "Disease" else AttributeRole.OTHER,
                severity=SeverityRating(1, 1, 1) if n == "Disease" else None,
            )
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
