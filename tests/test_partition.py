"""The partition core against the naive oracle, its cost in partitions, and
the metric properties that no acceptance criterion states.

Floats are compared with the oracle by ``==``: the partition sums in the same
order as the regrouping oracle in ``naive_metrics.py``, so any difference is a
defect.
"""

import json
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import naive_metrics as naive
from conftest import TOL, tables
from reident_risk.engine import AssessmentOptions, assess, build_combinations
from reident_risk.metrics import Partition, entropy
from reident_risk.model import (
    AttributeMeta,
    AttributeRole,
    Dataset,
    ExposureLevel,
    SeverityRating,
)
from reident_risk.report import to_json, to_markdown


def _split_names(d):
    qi = [n for n in d.attributes if n.startswith("q")]
    return qi, [n for n in d.attributes if n.startswith("s")]


@given(tables(sensitive=(1, 2), rows=(1, 40), values=6), st.data())
@settings(deadline=None)
def test_partition_equals_naive_oracle(table, data):
    d = Dataset(*table)
    qi_names, sensitive_names = _split_names(d)
    qi = data.draw(st.lists(st.sampled_from(qi_names), min_size=1, unique=True))
    p = Partition(d, qi)
    classes = naive.equivalence_classes(d, qi)

    assert p.sizes == [len(c.row_indices) for c in classes]
    class_of = {i: class_id for class_id, c in enumerate(classes) for i in c.row_indices}
    assert p.class_of == [class_of[i] for i in range(d.row_count)]
    assert p.k_anonymity() == naive.k_anonymity(d, qi)

    for s in sensitive_names:
        assert p.l_diversity(s) == naive.distinct_l_diversity(d, qi, s)
        assert p.conditional_entropy(s) == naive.conditional_entropy(d, s, qi)
        result = p.discrimination_rate(s)
        assert (result.h_s, result.h_s_given_qi, result.dr) == naive.discrimination_rate(d, qi, s)
        scores = [naive.value_inference(d, qi, c.key, s) for c in classes]
        assert p.class_inference(s) == scores


@given(tables(qi=(1, 4), sensitive=(1, 2), rows=(1, 40), values=6), st.data())
@settings(deadline=None)
def test_coarsen_equals_row_pass(table, data):
    d = Dataset(*table)
    qi_names, sensitive_names = _split_names(d)
    fine = Partition(d, data.draw(st.permutations(qi_names)))
    subsets = st.lists(st.sampled_from(qi_names), min_size=1, unique=True)
    for sub in data.draw(st.lists(subsets, min_size=1, max_size=3)):
        coarse, direct = fine.coarsen(sub), Partition(d, sub)
        assert coarse.qi_set == direct.qi_set
        assert coarse.sizes == direct.sizes
        # Tallied before class_of is read, so they come from the fine pairs; a
        # quasi-identifier left out of ``sub`` is tallied as a sensitive attribute.
        for s in sensitive_names + [q for q in qi_names if q not in sub]:
            assert coarse.tallies(s) == direct.tallies(s)
            assert coarse.conditional_entropy(s) == direct.conditional_entropy(s)
            assert coarse.class_inference(s) == direct.class_inference(s)
        assert coarse.class_of == direct.class_of
        one = sub[-1:]  # a coarsening of a coarsening
        assert coarse.coarsen(one).tallies("s0") == Partition(d, one).tallies("s0")


@given(
    tables(qi=(2, 4), sensitive=(1, 2), rows=(2, 40), values=6),
    st.lists(st.integers(1, 4), min_size=4, max_size=4),
    st.sampled_from(["per_level", "cumulative"]),
)
@settings(deadline=None)
def test_assess_equals_naive_oracle(table, exposures, strategy):
    d = Dataset(*table)
    qi_names, sensitive_names = _split_names(d)
    meta = [
        AttributeMeta(name=n, role=AttributeRole.QUASI_IDENTIFIER, exposure=ExposureLevel(e))
        for n, e in zip(qi_names, exposures)
    ] + [
        AttributeMeta(name=n, role=AttributeRole.SENSITIVE, severity=SeverityRating(1, 2, 3))
        for n in sensitive_names
    ]
    options = AssessmentOptions(combination_strategy=strategy)
    report = assess(d, meta, options)

    appendix = report.metrics_appendix
    assert appendix.k_anonymity == naive.k_anonymity(d, qi_names)
    assert [e.l_value for e in appendix.l_diversity] == [
        naive.distinct_l_diversity(d, qi_names, s) for s in sensitive_names
    ]
    for r in (row.dr for row in report.exploitability_rows):
        assert (r.h_s, r.h_s_given_qi, r.dr) == naive.discrimination_rate(d, r.qi_set, r.sensitive)

    # Every value has global severity 3, so every record is flagged under the
    # highest-exposure combination (ties: more members, then column order).
    combos = build_combinations(meta, strategy)
    top = min(
        combos,
        key=lambda c: (-int(c.exposure), -len(c.members), [qi_names.index(m) for m in c.members]),
    )
    keys = naive.project(d, top.members)
    records = report.flagged_records
    assert [(r.attribute, r.row_index) for r in records] == [
        (s, i) for s in sensitive_names for i in range(d.row_count)
    ]
    for record in records:
        expected = naive.value_inference(d, top.members, keys[record.row_index], record.attribute)
        assert record.class_inference == expected
        assert record.sensitive_value == d.column(record.attribute)[record.row_index]

    # Both renderings encode each outcome once; every record must still show its own cells.
    document = json.loads(to_json(report))["flagged_records"]
    section = to_markdown(report).split("## Flagged Records\n\n")[1].split("\n\n")[0]
    lines = section.splitlines()[2:]
    assert len(document) == len(lines) == len(records)
    for record, cells, line in zip(records, document, lines):
        row, severity, risk = record.row_index + 1, record.value_severity, record.record_risk
        score = f"{record.class_inference:.6f}"
        assert cells == {
            "row": row,
            "attribute": record.attribute,
            "value": record.sensitive_value,
            "value_severity": {"label": severity.label, "level": int(severity)},
            "class_inference": score,
            "record_risk": {"label": risk.label, "level": int(risk)},
        }
        assert line == (
            f"| **{row}** | **{record.attribute}** | **{record.sensitive_value}** "
            f"| **{severity.display}** | **{score}** | **{risk.display}** |"
        )


@given(tables())
@settings(deadline=None)
def test_value_inference_all_one_iff_dr_one(table):
    d = Dataset(*table)
    sensitive = d.attributes[-1]
    qi = list(d.attributes[:-1])
    if len(set(d.column(sensitive))) < 2:
        return
    p = Partition(d, qi)
    scores = p.class_inference(sensitive)
    dr = p.discrimination_rate(sensitive).dr
    assert all(s >= 1.0 - TOL for s in scores) == (abs(dr - 1.0) < TOL)


@given(st.lists(st.integers(1, 50), min_size=1, max_size=10))
@settings(deadline=None)
def test_entropy_bounds_and_uniform_maximum(counts):
    h = entropy(counts)
    m = len(counts)
    assert -TOL <= h <= math.log2(m) + TOL
    uniform = len(set(counts)) == 1
    assert (abs(h - math.log2(m)) < TOL) == uniform


def _near_unique(rows, seed):
    rng = random.Random(seed)
    table = [
        (
            str(rng.randrange(90)),
            rng.choice("MF"),
            f"{rng.randrange(10000):05d}",
            f"2019-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
            rng.choice(["Colds", "Flu", "HIV", "Cancer", "Diabetes"]),
        )
        for _ in range(rows)
    ]
    return Dataset(
        attributes=("Age", "Gender", "Zip", "Date", "Disease"), rows=tuple(table), source_label="t"
    )


def test_partitions_built_bounded_by_member_sets(monkeypatch):
    exposures = {"Age": 4, "Gender": 4, "Zip": 4, "Date": 2}
    meta = [
        AttributeMeta(name=n, role=AttributeRole.QUASI_IDENTIFIER, exposure=ExposureLevel(e))
        for n, e in exposures.items()
    ]
    meta.append(
        AttributeMeta(name="Disease", role=AttributeRole.SENSITIVE, severity=SeverityRating(1, 2, 4))
    )
    near_unique, small = _near_unique(2000, seed=5), _near_unique(20, seed=6)
    # Flagging runs under Age/Gender/Zip, where nearly every row is alone.
    assert len(Partition(near_unique, ["Age", "Gender", "Zip"]).sizes) > 1900

    built = []
    construct = Partition.__init__

    def counting(self, dataset, qi_set):
        built.append(tuple(qi_set))
        construct(self, dataset, qi_set)

    monkeypatch.setattr(Partition, "__init__", counting)
    for d in (near_unique, small):
        built.clear()
        report = assess(d, meta)
        assert len(report.flagged_records) == d.row_count
        # The full quasi-identifier set, also the k/l appendix's; every
        # combination is coarsened from it, whatever the number of classes.
        assert built == [("Age", "Gender", "Zip", "Date")]
