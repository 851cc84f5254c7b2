"""Inference bands decided on the exact rates, against big-int powers.

A float rate can land one ulp below a band boundary that the exact rate
reaches, or on one that it misses. Every combination's level and every
flagged record's class-score band must equal the band of the exact rate, as
``naive_metrics.exact_level`` decides it with big-int powers.
"""

import decimal
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

import naive_metrics as naive
from conftest import qi, sens, tables
from reident_risk.engine import (
    AssessmentOptions,
    DEFAULT_EXPLOITABILITY_MATRIX,
    DEFAULT_RISK_MATRIX,
    assess,
    build_combinations,
)
from reident_risk.exact import log_sign
from reident_risk.metrics import band
from reident_risk.model import Dataset


def _rows(*columns):
    """Rows from columns of digits, 0 to 3 read as the letters a to d."""
    return tuple(zip(*[["abcd"[int(d)] for d in column] for column in columns]))


# The rate of q0 for s0 is exactly 1/2, and computes as 0.4999999999999999.
_HALF_RATE = (("q0", "s0"), _rows("2212210002", "2101202112"))
# Class "a" of q0 holds s0 values c, c, b in a 9-row table whose s0 counts
# are 4, 2, 2, 1: its score is exactly 1/2 and computes as 0.4999999999999999.
_HALF_SCORE = (("q0", "s0"), _rows("110222020", "032003201"))


@given(
    tables(qi=(1, 4), sensitive=(1, 2), rows=(2, 16), values=4),
    st.lists(st.integers(1, 4), min_size=4, max_size=4),
    st.sampled_from(["per_level", "cumulative"]),
)
@example(_HALF_RATE, [4, 4, 4, 4], "per_level")
@example(_HALF_SCORE, [4, 4, 4, 4], "per_level")
@settings(deadline=None)
def test_levels_equal_exact_bands(table, exposures, strategy):
    d = Dataset(*table)
    qi_names = [n for n in d.attributes if n.startswith("q")]
    sensitive_names = [n for n in d.attributes if n.startswith("s")]
    # Every record is flagged, so every class of the top combination is banded.
    meta = [qi(n, e) for n, e in zip(qi_names, exposures)]
    meta += [sens(n, (1, 1, 4)) for n in sensitive_names]
    report = assess(d, meta, AssessmentOptions(combination_strategy=strategy))

    for row in report.exploitability_rows:
        dr = row.dr
        assert dr.inference == naive.exact_level(d, dr.qi_set, dr.sensitive)
        assert band(dr.dr) == dr.inference

    combos = build_combinations(meta, strategy)
    top = min(
        combos,
        key=lambda c: (-int(c.exposure), -len(c.members), [qi_names.index(m) for m in c.members]),
    )
    keys = naive.project(d, top.members)
    outcomes = report.outcomes
    assert len(report.flagged_rows) == d.row_count * len(sensitive_names)
    for row, o in zip(report.flagged_rows, report.flagged_outcome):
        outcome = outcomes[o]
        level = naive.exact_level(d, top.members, outcome.attribute, keys[row])
        assert band(outcome.class_inference) == level
        exploit = DEFAULT_EXPLOITABILITY_MATRIX.lookup(top.exposure, level)
        assert outcome.record_risk == DEFAULT_RISK_MATRIX.lookup(exploit, outcome.value_severity)



@given(st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(-300, 300)))
def test_log_sign_equals_integer_comparison(exponents):
    above = math.prod(p**e for p, e in exponents.items() if e > 0)
    below = math.prod(p**-e for p, e in exponents.items() if e < 0)
    assert log_sign(exponents) == (above > below) - (above < below)


def test_log_sign_raises_precision_until_certain():
    """10**40 * ln 2 and b * ln 3 agree in their first 40 digits when b is
    the floor or the ceiling of 10**40 * ln 2 / ln 3, so the sign of their
    difference needs more than the first precision of 28 digits."""
    with decimal.localcontext(decimal.Context(prec=100)):
        ratio = decimal.Decimal(2).ln() / decimal.Decimal(3).ln() * 10**40
    floor = int(ratio)
    assert 0.01 < ratio - floor < 0.99
    assert log_sign({2: 10**40, 3: -floor}) == 1
    assert log_sign({2: 10**40, 3: -floor - 1}) == -1
