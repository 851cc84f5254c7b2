"""Inference bands decided on exact rates, for rates near a band boundary.

A discrimination rate, or a class score, is 1 - u*ln(A) / (v*ln(B)) for
positive integers u and v and products A and B of powers of counts: with n
rows, class sizes n_c, pair counts n_cv and value counts n_v, a rate has
A = prod n_c**n_c / prod n_cv**n_cv, B = n**n / prod n_v**n_v and u = v = 1,
and the score of class c has A = n_c**n_c / prod_v n_cv**n_cv, u = n and
v = n_c. The rate reaches p/4 iff 4u*ln(A) <= (4-p)v*ln(B). Every count is
factored into primes, whose logarithms are independent, so equal exponent
vectors find a tie, which takes the upper band; otherwise the sign is found
with ``decimal`` at a precision raised until it is certain. No power of a
count is computed.
"""

from __future__ import annotations

import decimal
import math
from collections import Counter
from collections.abc import Iterable


def factored(totals: Iterable[int], parts: Iterable[int]) -> Counter[int]:
    """Prime to exponent in the product of t**t over ``totals`` divided by that
    of p**p over ``parts``."""
    exponents: Counter[int] = Counter()
    for sign, counts in ((1, totals), (-1, parts)):
        for c, times in Counter(counts).items():
            weight, factor = sign * c * times, 2
            while factor * factor <= c:
                while c % factor == 0:
                    exponents[factor] += weight
                    c //= factor
                factor += 1
            if c > 1:
                exponents[c] += weight
    return exponents


def log_sign(exponents: dict[int, int]) -> int:
    """The sign of the sum of e * ln(p) over prime p and exponent e: zero
    exactly when every exponent is."""
    terms = [(prime, e) for prime, e in exponents.items() if e]
    digits = 28
    while terms:
        with decimal.localcontext(decimal.Context(prec=digits)):
            parts = [decimal.Decimal(e) * decimal.Decimal(prime).ln() for prime, e in terms]
            total = sum(parts)
            # Each part is off by at most one unit in its last digit, and each addition by one.
            if abs(total) > (sum(map(abs, parts)) * (len(parts) + 2)).scaleb(1 - digits):
                return 1 if total > 0 else -1
        digits *= 2
    return 0


# The counts of a product of powers and its weight: (totals, parts, u or v).
Product = tuple[Iterable[int], Iterable[int], int]


def decided(x: float, p: int, a: Product, b: Product) -> float:
    """``x``, a float of the rate 1 - u*ln(A) / (v*ln(B)) near p/4, on the
    side of p/4 that the exact rate is on: moved to p/4, or to the float just
    below it, when it is on the other side. ``a`` gives A, as
    :func:`factored` takes it, and u; ``b`` gives B and v. With ``p`` 0,
    ``x`` is returned as it is."""
    if not p:
        return x
    (a_totals, a_parts, u), (b_totals, b_parts, v) = a, b
    ea, eb = factored(a_totals, a_parts), factored(b_totals, b_parts)
    difference = {f: 4 * u * ea[f] - (4 - p) * v * eb[f] for f in ea.keys() | eb.keys()}
    at_least = log_sign(difference) <= 0  # a tie takes the upper band
    if at_least == (x >= p / 4):
        return x
    return p / 4 if at_least else math.nextafter(p / 4, 0.0)
