"""Engine behaviour: combinations, matrices, assessment assembly, flags."""

import re

import pytest

from conftest import FULL_QI, qi, sens
from reident_risk.engine import (
    AssessmentError,
    AssessmentOptions,
    CombinationOrigin,
    DEFAULT_EXPLOITABILITY_MATRIX,
    DEFAULT_RISK_MATRIX,
    assess,
    build_combinations,
)
from reident_risk.model import (
    AttributeMeta,
    AttributeRole,
    Dataset,
    ExploitabilityLevel,
    ExposureLevel,
    RiskLevel,
    validate_meta,
)


class TestBuildCombinations:
    def test_per_level_groups(self, reference_meta):
        combos = build_combinations(reference_meta.attributes, "per_level")
        members = [c.members for c in combos]
        # Five individuals plus the one multi-member exposure group; the
        # single-member level groups collapse into the individuals.
        assert members.count(("Age",)) == 1
        assert ("Age", "Gender", "Country") in members
        assert len(combos) == 6
        group = next(c for c in combos if len(c.members) == 3)
        assert group.exposure is ExposureLevel.EXTERNAL_EXTENDED
        assert group.origin is CombinationOrigin.PER_LEVEL_GROUP

    def test_explicit_added_on_top_of_strategy(self, reference_meta):
        combos = build_combinations(
            reference_meta.attributes, "per_level", [["Admission Date", "Blood Type"]]
        )
        pair = next(c for c in combos if c.members == ("Admission Date", "Blood Type"))
        assert pair.exposure is ExposureLevel.INTERNAL_EXTENDED  # max(IE, IR)
        assert pair.origin is CombinationOrigin.EXPLICIT
        assert ("Age", "Gender", "Country") in [c.members for c in combos]

    def test_cumulative_groups(self, reference_meta):
        combos = build_combinations(reference_meta.attributes, "cumulative")
        members = {c.members for c in combos}
        assert ("Age", "Gender", "Country") in members
        assert ("Age", "Gender", "Country", "Admission Date") in members
        assert ("Age", "Gender", "Country", "Admission Date", "Blood Type") in members

    def test_explicit_strategy_means_no_automatic_groups(self, reference_meta):
        combos = build_combinations(reference_meta.attributes, "explicit", [["Age", "Gender"]])
        assert len(combos) == 6  # 5 individuals + 1 explicit pair
        assert all(
            c.origin in (CombinationOrigin.INDIVIDUAL, CombinationOrigin.EXPLICIT) for c in combos
        )

    def test_single_quasi_identifier(self):
        combos = build_combinations([qi("a", 2), sens("s")], "per_level")
        assert len(combos) == 1
        assert combos[0].members == ("a",)

    def test_duplicates_emitted_once(self, reference_meta):
        combos = build_combinations(
            reference_meta.attributes, "per_level", [["Age", "Gender", "Country"], ["Age"]]
        )
        members = [c.members for c in combos]
        assert members.count(("Age", "Gender", "Country")) == 1
        assert members.count(("Age",)) == 1

    def test_unknown_explicit_member_rejected(self, reference_meta):
        with pytest.raises(ValueError, match="not a declared quasi-identifier"):
            build_combinations(reference_meta.attributes, "per_level", [["Zip"]])

    @pytest.mark.parametrize(
        "explicit,message",
        [(["ab"], "expected an array of strings, got 'ab'"), ([[1]], "member 1 is not a string")],
        ids=["string-not-split", "name-not-stringified"],
    )
    def test_explicit_not_coerced(self, explicit, message):
        # "a", "b" and "1" are all declared, so only the parse can reject.
        meta = [qi("a", 2), qi("b", 3), qi("1", 1), sens("s")]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_combinations(meta, "explicit", explicit)

    @pytest.mark.parametrize(
        "meta,explicit,message",
        [
            (
                [AttributeMeta(name="a", role=AttributeRole.QUASI_IDENTIFIER), sens("s")],
                [],
                "quasi-identifier 'a': missing exposure level",
            ),
            ([qi("a", 2), qi("b", 3)], [[]], "explicit combination must not be empty"),
            (
                [qi("a", 2), qi("b", 3)],
                [["a", "b", "a"]],
                "explicit combination repeats an attribute: ['a', 'b', 'a']",
            ),
        ],
        ids=["missing-exposure", "empty-combination", "repeated-member"],
    )
    def test_malformed_combination_rejected(self, meta, explicit, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_combinations(meta, "per_level", explicit)

    def test_no_quasi_identifiers_rejected(self):
        with pytest.raises(ValueError, match="quasi-identifier"):
            build_combinations([sens("s")], "per_level")

    def test_unknown_strategy_rejected(self, reference_meta):
        with pytest.raises(ValueError, match="strategy"):
            build_combinations(reference_meta.attributes, "pairwise")


class TestAssessmentOptions:
    @pytest.mark.parametrize(
        "field,value,shown",
        [
            ("explicit_combinations", "ab", "'ab'"),
            ("explicit_combinations", [["Age", 1]], "member 1"),
            ("notes", "hi", "'hi'"),
            ("notes", [{"a": 1}, 3], "{'a': 1}"),
        ],
    )
    def test_non_string_arrays_rejected(self, field, value, shown):
        with pytest.raises(ValueError) as caught:
            AssessmentOptions(**{field: value})
        assert str(caught.value).startswith(f"{field}: ") and shown in str(caught.value)

    @pytest.mark.parametrize("field", ["exploitability_matrix", "risk_matrix"])
    @pytest.mark.parametrize("value", [[[1] * 4] * 4, None])
    def test_non_matrix_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: expected a ScaleMatrix, got "):
            AssessmentOptions(**{field: value})


class TestMatrices:
    def test_default_exploitability_cells(self):
        assert DEFAULT_EXPLOITABILITY_MATRIX.cells == (
            (1, 1, 2, 2),
            (1, 2, 2, 3),
            (2, 2, 3, 3),
            (2, 3, 3, 4),
        )

    def test_default_risk_cells(self):
        assert DEFAULT_RISK_MATRIX.cells == (
            (1, 1, 2, 2),
            (1, 2, 2, 3),
            (2, 2, 3, 4),
            (2, 3, 4, 4),
        )


MEMBER_6 = "meta[6]: expected an AttributeMeta, got None"
WHOLE_DOCUMENT = "meta: expected an array of AttributeMeta, got {doc!r}"


class TestAssessPreconditions:
    def test_missing_severity_reported(self, initial, reference_meta):
        meta = [
            m if m.name != "Disease" else AttributeMeta(name="Disease", role=AttributeRole.SENSITIVE)
            for m in reference_meta.attributes
        ]
        with pytest.raises(AssessmentError) as err:
            assess(initial, meta)
        assert any("missing severity" in e for e in err.value.errors)

    def test_no_sensitive_attribute_reported(self, initial):
        meta = [qi(n, 1) for n in initial.attributes]
        with pytest.raises(AssessmentError) as err:
            assess(initial, meta)
        assert any("sensitive" in e for e in err.value.errors)

    def test_no_quasi_identifier_reported(self, initial):
        meta = [sens("Disease")] + [
            AttributeMeta(name=n, role=AttributeRole.OTHER)
            for n in initial.attributes
            if n != "Disease"
        ]
        with pytest.raises(AssessmentError) as err:
            assess(initial, meta)
        assert err.value.errors == ("at least one quasi-identifier is required",)

    def test_too_few_rows_reported(self, reference_meta):
        d = Dataset(attributes=FULL_QI + ("Disease",), rows=(("1", "M", "X", "d", "O+", "Flu"),))
        with pytest.raises(AssessmentError) as err:
            assess(d, reference_meta.attributes)
        assert any("at least 2" in e for e in err.value.errors)

    def test_unknown_explicit_combination_reported(self, initial, reference_meta):
        options = AssessmentOptions(explicit_combinations=(("Zip",),))
        with pytest.raises(AssessmentError):
            assess(initial, reference_meta.attributes, options)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda d, m: assess("nope", m.attributes), "dataset: expected a Dataset, got 'nope'"),
            (lambda d, m: assess(d, "abc"), "meta: expected an array of AttributeMeta, got 'abc'"),
            (lambda d, m: assess(d, [*m.attributes, None]), MEMBER_6),
            (
                lambda d, m: assess(d, m.attributes, "x"),
                "options: expected an AssessmentOptions, got 'x'",
            ),
            # The whole document, not its attributes, is named as one argument.
            (lambda d, m: assess(d, m), WHOLE_DOCUMENT),
        ],
        ids=["dataset", "meta", "meta-member", "options", "document"],
    )
    def test_argument_of_wrong_type_named(self, initial, reference_meta, call, message):
        with pytest.raises(AssessmentError) as err:
            call(initial, reference_meta)
        assert err.value.errors == (message.format(doc=reference_meta),)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda d, m: validate_meta("x", m.attributes), "dataset: expected a Dataset, got 'x'"),
            (lambda d, m: validate_meta(d, m), WHOLE_DOCUMENT),
            (lambda d, m: validate_meta(d, [*m.attributes, None]), MEMBER_6),
            (lambda d, m: build_combinations(m), WHOLE_DOCUMENT),
            (lambda d, m: build_combinations([1]), "meta[0]: expected an AttributeMeta, got 1"),
        ],
        ids=["validate-dataset", "validate-meta", "validate-member", "combos-meta", "combos-mem"],
    )
    def test_argument_of_wrong_type_named_outside_assess(
        self, initial, reference_meta, call, message
    ):
        message = message.format(doc=reference_meta)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(initial, reference_meta)


class TestAssessReport:
    def test_overall_risk_is_max_of_rows(self, kanon, reference_meta):
        report = assess(kanon, reference_meta.attributes, reference_meta.options)
        assert int(report.overall_risk) == max(int(r.risk) for r in report.exploitability_rows)

    def test_flag_threshold_4_drops_significant(self, initial, reference_meta):
        options = AssessmentOptions(
            flag_threshold=4,
            explicit_combinations=reference_meta.options.explicit_combinations,
        )
        report = assess(initial, reference_meta.attributes, options)
        assert [row + 1 for row in report.flagged_rows] == [6, 8, 9]

    def test_identifier_attributes_warned_and_excluded(self, initial, reference_meta):
        meta = [
            m
            if m.name != "Blood Type"
            else AttributeMeta(name="Blood Type", role=AttributeRole.IDENTIFIER)
            for m in reference_meta.attributes
        ]
        report = assess(initial, meta)
        assert any("identifier" in w for w in report.warnings)
        for row in report.exploitability_rows:
            assert "Blood Type" not in row.combination.members

    def test_empty_cells_warned(self, reference_meta):
        rows = [
            ("23", "M", "Nigeria", "d1", "A+", "Colds"),
            ("24", "", "Nigeria", "d2", "O+", "Flu"),
        ]
        d = Dataset(attributes=FULL_QI + ("Disease",), rows=tuple(rows))
        report = assess(d, reference_meta.attributes)
        assert any("empty-string" in w for w in report.warnings)

    def test_degenerate_constant_sensitive(self):
        d = Dataset(
            attributes=("q", "s"),
            rows=(("a", "x"), ("b", "x"), ("c", "x")),
            source_label="degenerate",
        )
        meta = [qi("q", 1), sens("s", rating=(2, 2, 2))]
        report = assess(d, meta)
        assert any("single value" in w for w in report.warnings)
        # dr = 1 -> inference 4; exploitability cell (1, 4) = 2; risk cell (2, 2) = 2.
        assert report.exploitability_rows[0].dr.dr == 1.0
        assert report.exploitability_rows[0].exploitability is ExploitabilityLevel.DIFFICULT
        assert report.overall_risk is RiskLevel.MEDIUM

    def test_notes_become_warnings(self, initial, reference_meta):
        report = assess(initial, reference_meta.attributes, reference_meta.options)
        assert reference_meta.options.notes[0] in report.warnings

    def test_rows_sorted_by_exploitability_then_exposure(self, hipaa, reference_meta):
        report = assess(hipaa, reference_meta.attributes, reference_meta.options)
        keys = [
            (-int(r.exploitability), -int(r.combination.exposure))
            for r in report.exploitability_rows
        ]
        assert keys == sorted(keys)

    def test_removing_non_maximal_combination_keeps_overall_risk(self, kanon, reference_meta):
        with_pair = assess(kanon, reference_meta.attributes, reference_meta.options)
        pair_row = next(
            r
            for r in with_pair.exploitability_rows
            if r.combination.members == ("Admission Date", "Blood Type")
        )
        assert int(pair_row.risk) < int(with_pair.overall_risk)  # non-maximal row
        without_pair = assess(
            kanon,
            reference_meta.attributes,
            AssessmentOptions(
                combination_strategy=reference_meta.options.combination_strategy,
                flag_threshold=reference_meta.options.flag_threshold,
                notes=reference_meta.options.notes,
            ),
        )
        assert without_pair.overall_risk is with_pair.overall_risk
