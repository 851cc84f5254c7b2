"""Frequency metrics against independently computed expected values.

Expected entropies and discrimination rates are evaluated here by straight
formula application on counts read off the example tables by hand, never by
calling the code under test.
"""

import math

import pytest

import reident_risk
from conftest import FULL_QI
from naive_metrics import project
from reident_risk.metrics import Partition, band, entropy
from reident_risk.model import Dataset, InferenceLevel

TOL = 1e-12


def h_bits(counts):
    """Independent oracle: direct Shannon formula evaluation."""
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c)


# Disease value counts read off the 12-row tables: Colds 5, Flu 3, HIV 2,
# Diabetes 1, Cancer 1. The 9-row table has Colds 4, Flu 1, HIV 2,
# Diabetes 1, Cancer 1.
H12 = h_bits([5, 3, 2, 1, 1])
H9 = h_bits([4, 1, 2, 1, 1])


def tiny(rows, attrs=None):
    attrs = attrs or tuple(f"c{i}" for i in range(len(rows[0])))
    return Dataset(attributes=tuple(attrs), rows=tuple(tuple(r) for r in rows), source_label="t")


def class_score(d, qi, key, sensitive):
    """Inference score of the class whose rows project onto ``key``."""
    p = Partition(d, qi)
    return p.class_inference(sensitive)[p.class_of[project(d, qi).index(tuple(key))]]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from reident_risk import *", namespace)
    assert set(reident_risk.__all__) <= set(namespace)


class TestEquivalenceClasses:
    def test_kanon_groups(self, kanon):
        assert Partition(kanon, FULL_QI).sizes == [3, 3, 3]

    def test_initial_age_classes(self, initial):
        # Ages 23 and 53 each occur twice; every other age is unique.
        assert sorted(Partition(initial, ["Age"]).sizes) == [1] * 8 + [2, 2]

    def test_single_constant_attribute(self):
        d = tiny([["x", "a"], ["x", "b"], ["x", "c"]])
        assert Partition(d, ["c0"]).sizes == [3]

    def test_partition_and_order(self, initial):
        p = Partition(initial, ["Country"])
        key_of = {}  # class id -> country, in the order of each class's first row
        for country, c in zip(initial.column("Country"), p.class_of):
            assert key_of.setdefault(c, country) == country  # one country per class
        assert list(key_of) == list(range(len(p.sizes)))
        assert len(set(key_of.values())) == len(p.sizes)  # one class per country
        # First-occurrence order: Nigeria appears in row 0, Cameroon in row 1.
        assert [key_of[0], key_of[1]] == ["Nigeria", "Cameroon"]

    def test_unknown_attribute(self, initial):
        with pytest.raises(KeyError):
            Partition(initial, ["Age", "Zip"])

    def test_empty_dataset_rejected(self):
        d = Dataset(attributes=("a",), rows=())
        with pytest.raises(ValueError, match="no rows"):
            Partition(d, ["a"])

    def test_empty_qi_set_rejected(self, initial):
        with pytest.raises(ValueError):
            Partition(initial, [])

    @pytest.mark.parametrize("qi_set,shown", [("Age", "got 'Age'"), (["Age", 1], "member 1 ")])
    def test_non_string_qi_set_rejected(self, initial, qi_set, shown):
        with pytest.raises(ValueError, match=shown):
            Partition(initial, qi_set)


class TestKAnonymity:
    def test_kanon_table_is_3(self, kanon):
        assert Partition(kanon, FULL_QI).k_anonymity() == 3

    def test_initial_table_is_1(self, initial):
        assert Partition(initial, FULL_QI).k_anonymity() == 1

    def test_hipaa_table_is_1(self, hipaa):
        assert Partition(hipaa, FULL_QI).k_anonymity() == 1

    def test_constant_attribute_gives_row_count(self):
        d = tiny([["x", str(i)] for i in range(7)])
        assert Partition(d, ["c0"]).k_anonymity() == 7


class TestLDiversity:
    def test_kanon_group_lacks_diversity(self, kanon):
        assert Partition(kanon, FULL_QI).l_diversity("Disease") == 1

    def test_constant_sensitive(self):
        d = tiny([["a", "x"], ["b", "x"], ["a", "x"]])
        assert Partition(d, ["c0"]).l_diversity("c1") == 1

    def test_kanon_groups_2_and_3(self, kanon):
        subset = Dataset(attributes=kanon.attributes, rows=project(kanon, kanon.attributes)[3:], source_label="t")
        assert Partition(subset, FULL_QI).l_diversity("Disease") == 3

    def test_sensitive_in_qi_rejected(self, kanon):
        with pytest.raises(ValueError):
            Partition(kanon, ["Age", "Disease"]).l_diversity("Disease")


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([1, 1]) == pytest.approx(1.0, abs=TOL)

    def test_single_category(self):
        assert entropy([9]) == 0.0

    def test_initial_disease_counts(self, initial):
        counts = {}
        for v in initial.column("Disease"):
            counts[v] = counts.get(v, 0) + 1
        assert sorted(counts.values(), reverse=True) == [5, 3, 2, 1, 1]
        assert entropy(counts.values()) == pytest.approx(H12, abs=TOL)
        assert round(H12, 2) == 2.05

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            entropy([0, 0])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            entropy([3, -1])

    def test_zero_counts_ignored(self):
        assert entropy([2, 0, 2]) == pytest.approx(1.0, abs=TOL)


class TestConditionalEntropy:
    def test_functional_determination_is_zero(self):
        d = tiny([["a", "x"], ["a", "x"], ["b", "y"], ["b", "y"]])
        assert Partition(d, ["c0"]).conditional_entropy("c1") == pytest.approx(0.0, abs=TOL)

    def test_constant_given_equals_marginal(self, initial):
        d = tiny([["k", v] for v in initial.column("Disease")])
        assert Partition(d, ["c0"]).conditional_entropy("c1") == pytest.approx(H12, abs=TOL)

    def test_hipaa_disease_given_age(self, hipaa):
        # Only the two age-53 rows form an impure class ({Cancer, HIV}, 1 bit).
        expected = (2 / 12) * 1.0
        h = Partition(hipaa, ["Age"]).conditional_entropy("Disease")
        assert h == pytest.approx(expected, abs=TOL)

    def test_target_in_given_set_rejected(self, hipaa):
        with pytest.raises(ValueError):
            Partition(hipaa, ["Age", "Gender"]).conditional_entropy("Age")


class TestDiscriminationRate:
    def test_hipaa_demographics_perfect_inference(self, hipaa):
        # All 12 (Age, Gender, Country) projections are distinct.
        assert len(set(project(hipaa, ["Age", "Gender", "Country"]))) == 12
        result = Partition(hipaa, ["Age", "Gender", "Country"]).discrimination_rate("Disease")
        assert result.dr == 1.0
        assert result.h_s_given_qi == 0.0
        assert result.inference is InferenceLevel.CRITICAL

    def test_constant_qi_no_inference(self):
        d = tiny([["k", "x"], ["k", "y"], ["k", "x"], ["k", "z"]])
        result = Partition(d, ["c0"]).discrimination_rate("c1")
        assert result.dr == pytest.approx(0.0, abs=TOL)
        assert result.inference is InferenceLevel.WEAK

    def test_kanon_group_key(self, kanon):
        # Group 1 is pure; groups 2 and 3 are uniform over three diseases.
        expected = 1.0 - (2 / 3) * math.log2(3) / H9
        result = Partition(kanon, FULL_QI).discrimination_rate("Disease")
        assert result.dr == pytest.approx(expected, abs=1e-9)
        assert result.h_s == pytest.approx(H9, abs=TOL)
        assert result.inference is InferenceLevel.MODERATE

    def test_constant_sensitive_degenerate(self):
        d = tiny([["a", "x"], ["b", "x"], ["c", "x"]])
        result = Partition(d, ["c0"]).discrimination_rate("c1")
        assert result.h_s == 0.0
        assert result.dr == 1.0
        assert result.inference is InferenceLevel.CRITICAL

    def test_result_fields(self, hipaa):
        result = Partition(hipaa, ["Age"]).discrimination_rate("Disease")
        assert result.qi_set == ("Age",)
        assert result.sensitive == "Disease"
        assert 0.0 <= result.h_s_given_qi <= result.h_s
        assert result.dr == pytest.approx(1 - (2 / 12) / H12, abs=1e-9)

    @pytest.mark.parametrize("metric", ["discrimination_rate", "class_inference"])
    def test_sensitive_in_qi_rejected(self, hipaa, metric):
        # Inside its own QI set every class is pure, which would read dr = 1.
        p = Partition(hipaa, ["Age", "Disease"])
        with pytest.raises(ValueError, match="must not be a quasi-identifier"):
            getattr(p, metric)("Disease")


class TestValueInference:
    def test_kanon_twenties_pure_class(self, kanon):
        assert class_score(kanon, ["Age"], ("2*",), "Disease") == 1.0

    def test_class_matching_global_distribution(self):
        d = tiny([["a", "x"], ["a", "y"], ["b", "x"], ["b", "y"]])
        assert class_score(d, ["c0"], ("a",), "c1") == pytest.approx(0.0, abs=TOL)

    def test_hipaa_country_france(self, hipaa):
        # The France class holds {Colds, Flu}: one bit against H(S) overall.
        expected = 1.0 - 1.0 / H12
        score = class_score(hipaa, ["Country"], ("France",), "Disease")
        assert score == pytest.approx(expected, abs=1e-9)


class TestBand:
    @pytest.mark.parametrize(
        "dr,expected",
        [
            (0.0, 1),
            (0.2499, 1),
            (0.25, 2),
            (0.4999, 2),
            (0.5, 3),
            (0.7499, 3),
            (0.75, 4),
            (0.99, 4),
            (1.0, 4),
        ],
    )
    def test_boundaries(self, dr, expected):
        assert int(band(dr)) == expected

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            band(-0.01)
        with pytest.raises(ValueError):
            band(1.01)
