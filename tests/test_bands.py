"""``exact.log_sign``, which decides a band boundary from the counts,
against big-int comparisons. That every level of a report is the band of its
exact rate is checked by ``test_partition.py::test_assess_equals_naive_oracle``.
"""

import decimal
import math

from hypothesis import given
from hypothesis import strategies as st

from reident_risk.exact import log_sign


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
