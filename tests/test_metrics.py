"""Frequency metrics against independently computed expected values.

Expected entropies and discrimination rates are evaluated here by straight
formula application on counts read off the example tables by hand, never by
calling the code under test.
"""

import math
import re
from pathlib import Path

import pytest

import reident_risk
import naive_metrics as naive
from conftest import FULL_QI, H12, TOL
from reident_risk.metrics import Partition, band
from reident_risk.model import Dataset, InferenceLevel


def tiny(rows, attrs=None):
    attrs = attrs or tuple(f"c{i}" for i in range(len(rows[0])))
    return Dataset(attributes=tuple(attrs), rows=tuple(tuple(r) for r in rows), source_label="t")


def class_score(d, qi, key, sensitive):
    """Inference score of the class whose rows project onto ``key``."""
    p = Partition(d, qi)
    return p.class_inference(sensitive)[p.class_of[naive.project(d, qi).index(tuple(key))]]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from reident_risk import *", namespace)
    assert set(reident_risk.__all__) <= set(namespace)


def test_readme_lists_every_export():
    """The README's export list is the package's ``__all__``, name for name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("The package exports")
    listed = re.findall(r"`(\w+)`", readme[start : readme.index(".", start)])
    assert sorted(listed) == sorted(reident_risk.__all__)


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
        # One column's classes are its codes, shared with the dataset.
        column = initial.columns["Country"]
        assert p.class_of is column.codes and p.sizes is column.counts
        key_of = {}  # class id -> country, in the order of each class's first row
        for country, c in zip(naive.column(initial, "Country"), p.class_of):
            assert key_of.setdefault(c, country) == country  # one country per class
        assert list(key_of) == list(range(len(p.sizes)))
        assert len(set(key_of.values())) == len(p.sizes)  # one class per country
        # First-occurrence order: Nigeria appears in row 0, Cameroon in row 1.
        assert [key_of[0], key_of[1]] == ["Nigeria", "Cameroon"]

    def test_unknown_attribute(self, initial):
        with pytest.raises(KeyError):
            Partition(initial, ["Age", "Zip"])

    def test_coarsen_outside_qi_set_rejected(self, initial):
        with pytest.raises(ValueError, match="'Gender' is not in the quasi-identifier set"):
            Partition(initial, ["Age", "Country"]).coarsen(["Gender"])
        # A coarsening checks its own set, not its source's.
        coarse = Partition(initial, ["Age", "Gender", "Country"]).coarsen(["Age", "Country"])
        with pytest.raises(ValueError, match=r"'Gender' is not in .* \('Age', 'Country'\)$"):
            coarse.coarsen(["Gender"])

    def test_empty_dataset_rejected(self):
        d = Dataset(attributes=("a",), rows=())
        with pytest.raises(ValueError, match="no rows"):
            Partition(d, ["a"])

    def test_empty_qi_set_rejected(self, initial):
        with pytest.raises(ValueError):
            Partition(initial, [])

    @pytest.mark.parametrize(
        "qi_set,shown",
        [
            ("Age", "got 'Age'"),
            (["Age", 1], "member 1 "),
            (["Age", "Age"], r"^duplicate attribute in quasi-identifier set: \('Age', 'Age'\)$"),
        ],
    )
    def test_non_string_qi_set_rejected(self, initial, qi_set, shown):
        with pytest.raises(ValueError, match=shown):
            Partition(initial, qi_set)

    @pytest.mark.parametrize("dataset", ["x", None, ("Age",)])
    def test_non_dataset_rejected(self, dataset):
        with pytest.raises(ValueError) as err:
            Partition(dataset, ["Age"])
        assert str(err.value) == f"dataset: expected a Dataset, got {dataset!r}"


class TestKAnonymity:
    def test_constant_attribute_gives_row_count(self):
        d = tiny([["x", str(i)] for i in range(7)])
        assert Partition(d, ["c0"]).k_anonymity() == 7


class TestLDiversity:
    def test_constant_sensitive(self):
        d = tiny([["a", "x"], ["b", "x"], ["a", "x"]])
        assert Partition(d, ["c0"]).l_diversity("c1") == 1

    def test_kanon_groups_2_and_3(self, kanon):
        subset = Dataset(kanon.attributes, naive.project(kanon, kanon.attributes)[3:])
        assert Partition(subset, FULL_QI).l_diversity("Disease") == 3


class TestConditionalEntropy:
    def test_functional_determination_is_zero(self):
        d = tiny([["a", "x"], ["a", "x"], ["b", "y"], ["b", "y"]])
        assert Partition(d, ["c0"]).conditional_entropy("c1") == pytest.approx(0.0, abs=TOL)

    def test_constant_given_equals_marginal(self, initial):
        d = tiny([["k", v] for v in naive.column(initial, "Disease")])
        assert Partition(d, ["c0"]).conditional_entropy("c1") == pytest.approx(H12, abs=TOL)


class TestDiscriminationRate:
    def test_constant_qi_no_inference(self):
        d = tiny([["k", "x"], ["k", "y"], ["k", "x"], ["k", "z"]])
        result = Partition(d, ["c0"]).discrimination_rate("c1")
        assert result.dr == pytest.approx(0.0, abs=TOL)
        assert result.inference is InferenceLevel.WEAK

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

    def test_initial_disease_counts(self, initial):
        counts = {}
        for v in naive.column(initial, "Disease"):
            counts[v] = counts.get(v, 0) + 1
        assert sorted(counts.values(), reverse=True) == [5, 3, 2, 1, 1]
        assert Partition(initial, ["Age"]).discrimination_rate("Disease").h_s == H12
        assert round(H12, 2) == 2.05

    @pytest.mark.parametrize(
        "metric", ["l_diversity", "conditional_entropy", "discrimination_rate", "class_inference"]
    )
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
        # A bool is not a rate, though it is an int; nothing is converted.
        for dr in (-0.01, 1.01, math.nan, True, False, "0.3", None):
            with pytest.raises(ValueError, match=f"got {re.escape(repr(dr))}$"):
                band(dr)
