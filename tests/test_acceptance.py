"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Expected numbers are derived in-test by straight formula evaluation on
counts read off the bundled example tables, or by brute-force oracles,
never by the code under test.
"""

import hashlib
import json
import math
import random
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_metrics as naive
from conftest import FULL_QI, H9, H12, TOL, generated, qi, run, sens, tables
from reident_risk import fixtures
from reident_risk.engine import AssessmentOptions, assess
from reident_risk.metrics import Partition, band
from reident_risk.model import Dataset
from reident_risk.report import report_to_dict, to_json

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {title}")
        raise
    print(f"[criterion {number}] PASS: {title}")


def find_row(report, members):
    return next(r for r in report.exploitability_rows if r.combination.members == tuple(members))


def test_criterion_1_hipaa_end_to_end(hipaa, reference_meta):
    with criterion(1, "end-to-end reproduction on the date-generalized table"):
        report = assess(hipaa, reference_meta.attributes, reference_meta.options)

        demographics = find_row(report, ("Age", "Gender", "Country"))
        assert report.exploitability_rows[0] is demographics
        assert demographics.combination.exposure.display == "4-EE"
        assert demographics.inference.display == "4-Critical"
        assert demographics.exploitability.display == "4-Very Easy"
        assert demographics.dr.dr == 1.0  # all 12 projections unique, exactly
        assert demographics.dr.h_s_given_qi == 0.0
        assert f"{demographics.dr.dr:.6f}" == "1.000000"

        pair = find_row(report, ("Admission Date", "Blood Type"))
        assert pair.combination.exposure.display == "2-IE"
        assert int(pair.inference) >= 3
        assert int(pair.inference) == 4 and pair.exploitability.display == "3-Easy"

        assert demographics.severity.display == "4-Maximum"
        assert demographics.risk.display == "4-Critical"
        assert pair.risk.display == "4-Critical"
        assert report.overall_risk.display == "4-Critical"


def test_criterion_2_reproducible_single_attributes(hipaa):
    with criterion(2, "analytically reproducible single-attribute inference levels"):
        dr_age = Partition(hipaa, ["Age"]).discrimination_rate("Disease")
        expected_age = 1 - (2 / 12) / H12
        assert abs(dr_age.dr - expected_age) < TOL
        assert 0.75 <= dr_age.dr <= 1.0
        assert dr_age.inference.display == "4-Critical"

        dr_country = Partition(hipaa, ["Country"]).discrimination_rate("Disease")
        expected_country = 1 - (4 / 12) / H12
        assert abs(dr_country.dr - expected_country) < TOL
        assert dr_country.inference.display == "4-Critical"


def test_criterion_3_non_reproducible_cells_documented(hipaa, kanon, reference_meta):
    with criterion(3, "non-reproducible reference labels asserted at oracle values"):
        # The grouped quasi-identifier key on the 3-anonymous table: group 1
        # is pure, groups 2 and 3 are uniform over three diseases.
        dr_group = Partition(kanon, FULL_QI).discrimination_rate("Disease")
        expected = 1 - (2 / 3) * math.log2(3) / H9
        assert abs(dr_group.dr - expected) < TOL
        assert abs(dr_group.h_s - H9) < TOL
        assert dr_group.inference.display == "2-Moderate"

        # Single attributes whose circulated labels do not follow from the
        # data; the computed levels below are the authoritative ones.
        for qi, label in (
            ("Gender", "1-Weak"),
            ("Admission Date", "3-Severe"),
            ("Blood Type", "3-Severe"),
        ):
            assert Partition(hipaa, [qi]).discrimination_rate("Disease").inference.display == label

        # The explanatory note ships with the fixtures and must surface as a
        # report warning whenever they are assessed.
        for name in fixtures.FIXTURE_NAMES:
            report = assess(
                fixtures.fixture_dataset(name), reference_meta.attributes, reference_meta.options
            )
            assert fixtures.FIXTURE_NOTE in report.warnings


def test_criterion_4_severity_reproduction(initial, reference_meta):
    with criterion(4, "severity table and flagged records on the raw table"):
        report = assess(initial, reference_meta.attributes, reference_meta.options)
        table = report_to_dict(report)["attribute_severity_table"]
        by_attr = {e["attribute"]: e for e in table}
        assert set(by_attr) == set(initial.attributes)
        assert by_attr["Disease"]["global"]["level"] == 4
        disease = by_attr["Disease"]
        assert [disease[k]["level"] for k in ("bodily", "material", "moral")] == [1, 3, 4]
        for name in ("Age", "Gender", "Country", "Admission Date", "Blood Type"):
            assert by_attr[name]["global"]["level"] == 1

        assert reference_meta.options.flag_threshold == 3
        assert [row + 1 for row in report.flagged_rows] == [6, 7, 8, 9]
        values = [report.outcomes[o].sensitive_value for o in report.flagged_outcome]
        assert values == ["HIV", "Diabetes", "Cancer", "HIV"]


def test_criterion_5_k_anonymity_and_diversity_oracles(initial, kanon, hipaa, reference_meta):
    with criterion(5, "k-anonymity / diversity values and brute-force equivalence"):
        report = assess(kanon, reference_meta.attributes, reference_meta.options)
        appendix = report.metrics_appendix
        assert (appendix.qi_set, appendix.k_anonymity) == (FULL_QI, 3)
        assert [(e.sensitive, e.l_value) for e in appendix.l_diversity] == [("Disease", 1)]
        assert Partition(initial, FULL_QI).k_anonymity() == 1
        assert Partition(hipaa, FULL_QI).k_anonymity() == 1

        rng = random.Random(20260809)
        alphabet = "abcdefgh"
        for _ in range(100):
            n_cols = rng.randint(2, 6)
            n_rows = rng.randint(1, 200)
            size = rng.randint(1, len(alphabet))
            names = tuple(f"c{i}" for i in range(n_cols))
            rows = tuple(
                tuple(alphabet[rng.randrange(size)] for _ in range(n_cols))
                for _ in range(n_rows)
            )
            d = Dataset(attributes=names, rows=rows, source_label="rand")
            qi = rng.sample(names, rng.randint(1, n_cols))
            keys = naive.project(d, qi)
            brute_force = min(sum(1 for other in keys if other == key) for key in keys)
            assert Partition(d, qi).k_anonymity() == brute_force


def test_criterion_6_property_suites():
    with criterion(6, "property suites at 500 random cases each"):

        @given(tables())
        @settings(max_examples=500, deadline=None)
        def conditioning_range_and_purity(table):
            d = Dataset(*table)
            s = d.attributes[-1]
            qi_set = d.attributes[:-1]
            column = naive.column(d, s)
            counts = {}
            for v in column:
                counts[v] = counts.get(v, 0) + 1
            partition = Partition(d, qi_set)
            h_cond = partition.conditional_entropy(s)
            assert -TOL <= h_cond <= naive.entropy(counts.values()) + TOL
            dr = partition.discrimination_rate(s).dr
            assert 0.0 <= dr <= 1.0
            if len(counts) > 1:  # H(S) = 0 is pinned to dr = 1 by definition
                classes = naive.equivalence_classes(d, qi_set)
                pure = all(len({column[i] for i in c.row_indices}) == 1 for c in classes)
                assert (abs(dr - 1.0) < TOL) == pure

        @given(tables(qi=(2, 4)))
        @settings(max_examples=500, deadline=None)
        def dr_superset_monotone(table):
            d = Dataset(*table)
            s = d.attributes[-1]
            small = Partition(d, d.attributes[:1]).discrimination_rate(s)
            large = Partition(d, d.attributes[:-1]).discrimination_rate(s)
            assert large.dr >= small.dr - TOL
            # So the inference level never drops either (band is monotone);
            # guard against float drift landing exactly on a band edge.
            if large.dr >= small.dr:
                assert int(large.inference) >= int(small.inference)

        @given(
            tables(qi=(3, 3), rows=(2, 8), values=3),
            st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
            st.integers(0, 2),
            st.sampled_from(["cumulative", "explicit"]),
        )
        @settings(max_examples=500, deadline=None)
        def raising_exposure_never_lowers_risk(table, exposures, which, strategy):
            d = Dataset(*table)
            qi_names = d.attributes[:-1]
            sensitive = d.attributes[-1]

            def build_meta(levels):
                return [*map(qi, qi_names, levels), sens(sensitive, (1, 2, 3))]

            options = AssessmentOptions(
                combination_strategy=strategy,
                explicit_combinations=(
                    (qi_names[0], qi_names[1]),
                    tuple(qi_names),
                ),
            )
            before = assess(d, build_meta(exposures), options)
            raised = list(exposures)
            raised[which] = min(raised[which] + 1, 4)
            after = assess(d, build_meta(tuple(raised)), options)

            assert int(after.overall_risk) >= int(before.overall_risk)
            # Raising an exposure may merge a cumulative group into a superset
            # group; the counterpart of each old row is then the superset row,
            # whose inference and exposure are both weakly higher.
            after_rows = [
                (set(r.combination.members), int(r.exploitability))
                for r in after.exploitability_rows
            ]
            for row in before.exploitability_rows:
                members = set(row.combination.members)
                counterpart = max(
                    level for other, level in after_rows if members <= other
                )
                assert counterpart >= int(row.exploitability)

        @given(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
        @settings(max_examples=500, deadline=None)
        def band_monotone_and_total(a, b):
            low, high = sorted((a, b))
            lo, hi = band(low), band(high)
            assert int(lo) in (1, 2, 3, 4) and int(hi) in (1, 2, 3, 4)
            assert int(lo) <= int(hi)

        conditioning_range_and_purity()
        dr_superset_monotone()
        raising_exposure_never_lowers_risk()
        band_monotone_and_total()


def test_criterion_7_determinism_and_golden_files(reference_meta):
    with criterion(7, "byte-identical reports and golden files"):
        for name in fixtures.FIXTURE_NAMES:
            dataset = fixtures.fixture_dataset(name)
            first, second = (
                assess(dataset, reference_meta.attributes, reference_meta.options)
                for _ in range(2)
            )
            assert first == second
            golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
            assert to_json(first) == to_json(second) == golden
            json.loads(golden)


# SHA-256 of ``assess --format both`` on each generator's output at seed 1:
# the JSON, a newline, then the Markdown.
GENERATED_REPORTS = {
    "kanon_bulk": "0aae791a09645541179534f536c88e481e5cdf5a3d3c7460a45f5d7ca8ba5ca8",
    "raw_unique": "845879c79f692e165592f29e4916a6c13e23c557458414fb8a38be334bfa06c2",
}


@pytest.mark.parametrize("workload", sorted(GENERATED_REPORTS))
def test_generated_reports_keep_their_bytes(workload, tmp_path, capsys):
    """Reports on the benchmark's generated inputs keep their pinned bytes."""
    data, meta = generated(tmp_path, workload)
    code, out, _ = run(["assess", "--data", data, "--meta", meta, "--format", "both"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATED_REPORTS[workload]
