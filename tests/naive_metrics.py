"""Deliberately naive metric oracle for differential tests.

This is the regrouping implementation that ``reident_risk.metrics`` used
before the partition core: every call regroups the whole table by tuples of
strings, and a class is looked up by a linear scan of the classes. It is
quadratic in the number of classes and kept only as a reference. An
entropy sums the package's terms (``p * log2(p)`` with ``p = c / total``)
with ``math.fsum``, which rounds once and so in no particular order, so class
scores must equal the package's under ``==``; the conditional entropy is the
per-class sum, which the package's closed form matches only to the last bits.

Bands are decided exactly, with big-int powers: a rate 1 - u*ln(A)/(v*ln(B))
reaches p/4 iff A**(4u) <= B**((4-p)v), so a rate on a boundary takes the
upper band. A float within 1e-9 of a boundary that lies on the wrong side of
it is moved onto the exact value's side, as the package does.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from reident_risk.model import Dataset, InferenceLevel

_NEAR = 1e-9


@dataclass(frozen=True)
class NaiveClass:
    key: tuple[str, ...]
    row_indices: tuple[int, ...]


def find(classes: Sequence[NaiveClass], key: Sequence[str], qi_set: Sequence[str]) -> NaiveClass:
    wanted = tuple(key)
    for c in classes:
        if c.key == wanted:
            return c
    raise KeyError(f"unknown class {wanted!r} for quasi-identifiers {tuple(qi_set)!r}")


def column(dataset: Dataset, name: str) -> tuple[str, ...]:
    """The cells of column ``name``, one per row, decoded from its codes."""
    values, codes, _ = dataset.columns[name]
    return tuple(values[code] for code in codes)


def project(dataset: Dataset, names: Sequence[str]) -> list[tuple[str, ...]]:
    """Per-row tuples of the cells under ``names``, in row order."""
    return list(zip(*(column(dataset, name) for name in names)))


def equivalence_classes(dataset: Dataset, qi_set: Sequence[str]) -> list[NaiveClass]:
    groups: dict[tuple[str, ...], list[int]] = {}
    for i, key in enumerate(project(dataset, qi_set)):
        groups.setdefault(key, []).append(i)
    return [NaiveClass(key=key, row_indices=tuple(idxs)) for key, idxs in groups.items()]


def entropy(counts: Iterable[int]) -> float:
    values = [c for c in counts if c > 0]
    total = sum(values)
    return math.fsum(-p * math.log2(p) for p in [c / total for c in values])


def _counts(values: Iterable[str]) -> list[int]:
    tally: dict[str, int] = {}
    for v in values:
        tally[v] = tally.get(v, 0) + 1
    return list(tally.values())


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def k_anonymity(dataset: Dataset, qi_set: Sequence[str]) -> int:
    return min(len(c.row_indices) for c in equivalence_classes(dataset, qi_set))


def distinct_l_diversity(dataset: Dataset, qi_set: Sequence[str], sensitive: str) -> int:
    cells = column(dataset, sensitive)
    return min(len({cells[i] for i in c.row_indices}) for c in equivalence_classes(dataset, qi_set))


def conditional_entropy(dataset: Dataset, target: str, given_set: Sequence[str]) -> float:
    cells = column(dataset, target)
    n = dataset.row_count
    h = 0.0
    for c in equivalence_classes(dataset, given_set):
        h += (len(c.row_indices) / n) * entropy(_counts(cells[i] for i in c.row_indices))
    return h


def _power(counts: Iterable[int]) -> int:
    """The product of c**c over ``counts``: 2 to the sum of c*log2(c)."""
    return math.prod(c**c for c in counts)


def _exact(
    dataset: Dataset, qi_set: Sequence[str], sensitive: str, key: Sequence[str] | None = None
) -> Callable[[int], bool]:
    """Whether the discrimination rate, or with ``key`` that class's score,
    reaches p/4, for p in 1, 2, 3. A is the product of n_c**n_c over the
    classes (or of the class alone) over that of n_cv**n_cv over their
    (class, value) pairs, and B is n**n over the product of n_v**n_v."""
    cells = column(dataset, sensitive)
    n = len(cells)
    b = (n**n, _power(_counts(cells)))
    classes = equivalence_classes(dataset, qi_set)
    if key is not None:
        classes = [find(classes, key, qi_set)]
    groups = [[cells[i] for i in c.row_indices] for c in classes]
    a = (_power(map(len, groups)), math.prod(_power(_counts(g)) for g in groups))
    u, v = (1, 1) if key is None else (n, len(groups[0]))

    def at_least(p: int) -> bool:
        k, m = 4 * u, (4 - p) * v
        return a[0] ** k * b[1] ** m <= b[0] ** m * a[1] ** k

    return at_least


def exact_level(
    dataset: Dataset, qi_set: Sequence[str], sensitive: str, key: Sequence[str] | None = None
) -> InferenceLevel:
    """The inference level of the discrimination rate, or with ``key`` of that
    class's score, decided with big-int powers."""
    at_least = _exact(dataset, qi_set, sensitive, key)
    return InferenceLevel(1 + sum(map(at_least, (1, 2, 3))))


def _decided(x: float, exact: Callable[[], Callable[[int], bool]]) -> float:
    for p in (1, 2, 3):
        boundary = p / 4
        if abs(x - boundary) <= _NEAR:
            at_least = exact()(p)
            if at_least != (x >= boundary):
                return boundary if at_least else math.nextafter(boundary, 0.0)
    return x


def discrimination_rate(
    dataset: Dataset, qi_set: Sequence[str], sensitive: str
) -> tuple[float, float, float]:
    """(H(S), H(S|Q), DR)."""
    h_s = entropy(_counts(column(dataset, sensitive)))
    h_s_given_qi = conditional_entropy(dataset, sensitive, qi_set)
    dr = 1.0 if h_s == 0.0 else _clamp01(1.0 - h_s_given_qi / h_s)
    return h_s, h_s_given_qi, _decided(dr, lambda: _exact(dataset, qi_set, sensitive))


def value_inference(
    dataset: Dataset, qi_set: Sequence[str], key: Sequence[str], sensitive: str
) -> float:
    cls = find(equivalence_classes(dataset, qi_set), key, qi_set)
    cells = column(dataset, sensitive)
    h_class = entropy(_counts(cells[i] for i in cls.row_indices))
    if h_class == 0.0:
        return 1.0
    h_s = entropy(_counts(cells))
    if h_s == 0.0:
        return 1.0
    score = _clamp01(1.0 - h_class / h_s)
    return _decided(score, lambda: _exact(dataset, qi_set, sensitive, key))


def code_width(size: int) -> int:
    """The bytes that a code of ``range(size)`` takes in a column or a partition:
    one up to 256 values, two up to 65,536, else four."""
    return 1 if size <= 256 else 2 if size <= 1 << 16 else 4


def view(dataset: Dataset, qi_set: Sequence[str], sensitive: Sequence[str]) -> tuple:
    """What a partition under ``qi_set`` derives from its classes: their sizes,
    the class of each row, the bytes a class in ``class_of`` must take (see
    ``code_width``), per sensitive attribute the count of each value in each class as
    ``{class: {code: n}}``, l and the class scores, and last the conditional
    entropies."""
    classes = equivalence_classes(dataset, qi_set)
    class_of = {i: class_id for class_id, c in enumerate(classes) for i in c.row_indices}
    row_classes = [class_of[i] for i in range(dataset.row_count)]
    per_sensitive = []
    for s in sensitive:
        codes = dataset.columns[s].codes
        counts = {c: dict(Counter(codes[i] for i in k.row_indices)) for c, k in enumerate(classes)}
        l_value = distinct_l_diversity(dataset, qi_set, s)
        scores = [value_inference(dataset, qi_set, c.key, s) for c in classes]
        per_sensitive.append((counts, l_value, scores))
    sizes = [len(c.row_indices) for c in classes]
    entropies = [conditional_entropy(dataset, s, qi_set) for s in sensitive]
    return sizes, row_classes, code_width(len(classes)), per_sensitive, entropies
