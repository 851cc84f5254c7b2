"""Property tests for the metric invariants over random small tables."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import naive_metrics as naive
from reident_risk.metrics import Partition, band, entropy
from reident_risk.model import Dataset

TOL = 1e-9


def dataset_strategy(min_rows=1, max_rows=25, min_cols=2, max_cols=5, alphabet="abcd"):
    def build(draw):
        n_cols = draw(st.integers(min_cols, max_cols))
        rows = draw(
            st.lists(
                st.lists(st.sampled_from(alphabet), min_size=n_cols, max_size=n_cols),
                min_size=min_rows,
                max_size=max_rows,
            )
        )
        names = tuple(f"c{i}" for i in range(n_cols))
        return Dataset(attributes=names, rows=tuple(tuple(r) for r in rows), source_label="rand")

    return st.composite(build)()


@given(dataset_strategy())
@settings(deadline=None)
def test_conditioning_never_increases_entropy(d):
    sensitive = d.attributes[-1]
    qi = list(d.attributes[:-1])
    counts = {}
    for v in d.column(sensitive):
        counts[v] = counts.get(v, 0) + 1
    h_s = entropy(counts.values())
    h_cond = Partition(d, qi).conditional_entropy(sensitive)
    assert -TOL <= h_cond <= h_s + TOL


@given(dataset_strategy())
@settings(deadline=None)
def test_dr_in_unit_interval(d):
    result = Partition(d, d.attributes[:-1]).discrimination_rate(d.attributes[-1])
    assert 0.0 <= result.dr <= 1.0


@given(dataset_strategy(min_cols=3))
@settings(deadline=None)
def test_dr_superset_monotone(d):
    sensitive = d.attributes[-1]
    small = list(d.attributes[:1])
    large = list(d.attributes[:-1])
    result_small = Partition(d, small).discrimination_rate(sensitive)
    result_large = Partition(d, large).discrimination_rate(sensitive)
    assert result_large.dr >= result_small.dr - TOL
    # Growing a combination never decreases the inference level (band is
    # monotone); guard against float drift landing exactly on a band edge.
    if result_large.dr >= result_small.dr:
        assert int(result_large.inference) >= int(result_small.inference)


@given(dataset_strategy())
@settings(deadline=None)
def test_dr_one_iff_all_classes_pure(d):
    sensitive = d.attributes[-1]
    qi = list(d.attributes[:-1])
    column = d.column(sensitive)
    if len(set(column)) < 2:
        return  # degenerate H(S)=0 case is pinned to dr=1 by definition
    classes = naive.equivalence_classes(d, qi)
    all_pure = all(len({column[i] for i in c.row_indices}) == 1 for c in classes)
    result = Partition(d, qi).discrimination_rate(sensitive)
    assert (abs(result.dr - 1.0) < TOL) == all_pure


@given(dataset_strategy())
@settings(deadline=None)
def test_value_inference_all_one_iff_dr_one(d):
    sensitive = d.attributes[-1]
    qi = list(d.attributes[:-1])
    if len(set(d.column(sensitive))) < 2:
        return
    p = Partition(d, qi)
    scores = p.class_inference(sensitive)
    dr = p.discrimination_rate(sensitive).dr
    assert all(s >= 1.0 - TOL for s in scores) == (abs(dr - 1.0) < TOL)


@given(dataset_strategy())
@settings(deadline=None)
def test_classes_partition_rows(d):
    qi = list(d.attributes[:-1])
    p = Partition(d, qi)
    keys = naive.project(d, qi)
    # Every row has one class, and class ids and keys are in bijection.
    assert len(p.class_of) == sum(p.sizes) == d.row_count
    assert len(set(zip(p.class_of, keys))) == len(set(keys)) == len(p.sizes)


@given(dataset_strategy(max_rows=40))
@settings(deadline=None)
def test_k_matches_naive_quadratic_grouping(d):
    qi = list(d.attributes[:-1])
    idxs = [d.attribute_index(n) for n in qi]
    rows = naive.project(d, d.attributes)
    sizes = []
    for row in rows:
        key = tuple(row[i] for i in idxs)
        sizes.append(sum(1 for other in rows if tuple(other[i] for i in idxs) == key))
    assert Partition(d, qi).k_anonymity() == min(sizes)


@given(st.lists(st.integers(1, 50), min_size=1, max_size=10))
@settings(deadline=None)
def test_entropy_bounds_and_uniform_maximum(counts):
    h = entropy(counts)
    m = len(counts)
    assert -TOL <= h <= math.log2(m) + TOL
    uniform = len(set(counts)) == 1
    assert (abs(h - math.log2(m)) < TOL) == uniform


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(deadline=None)
def test_band_total_on_unit_interval(dr):
    assert int(band(dr)) in (1, 2, 3, 4)


@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(deadline=None)
def test_band_monotone(a, b):
    low, high = sorted((a, b))
    assert int(band(low)) <= int(band(high))
