"""Deliberately naive metric oracle for differential tests.

This is the regrouping implementation that ``reident_risk.metrics`` used
before the partition core: every call regroups the whole table by tuples of
strings, and a class is looked up by a linear scan of the classes. It is
quadratic in the number of classes and kept only as a reference. The sums
run in the same order as the package's (classes in first-occurrence order,
values in first-occurrence order within a class), so its floats must equal
the package's under ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from reident_risk.model import Dataset


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


def project(dataset: Dataset, names: Sequence[str]) -> list[tuple[str, ...]]:
    """Per-row tuples of the cells under ``names``, in row order."""
    return list(zip(*map(dataset.column, names)))


def equivalence_classes(dataset: Dataset, qi_set: Sequence[str]) -> list[NaiveClass]:
    groups: dict[tuple[str, ...], list[int]] = {}
    for i, key in enumerate(project(dataset, qi_set)):
        groups.setdefault(key, []).append(i)
    return [NaiveClass(key=key, row_indices=tuple(idxs)) for key, idxs in groups.items()]


def entropy(counts: Iterable[int]) -> float:
    values = [float(c) for c in counts]
    total = sum(values)
    h = 0.0
    for c in values:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


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
    column = dataset.column(sensitive)
    return min(len({column[i] for i in c.row_indices}) for c in equivalence_classes(dataset, qi_set))


def conditional_entropy(dataset: Dataset, target: str, given_set: Sequence[str]) -> float:
    column = dataset.column(target)
    n = dataset.row_count
    h = 0.0
    for c in equivalence_classes(dataset, given_set):
        h += (len(c.row_indices) / n) * entropy(_counts(column[i] for i in c.row_indices))
    return h


def discrimination_rate(
    dataset: Dataset, qi_set: Sequence[str], sensitive: str
) -> tuple[float, float, float]:
    """(H(S), H(S|Q), DR)."""
    h_s = entropy(_counts(dataset.column(sensitive)))
    h_s_given_qi = conditional_entropy(dataset, sensitive, qi_set)
    dr = 1.0 if h_s == 0.0 else _clamp01(1.0 - h_s_given_qi / h_s)
    return h_s, h_s_given_qi, dr


def value_inference(
    dataset: Dataset, qi_set: Sequence[str], key: Sequence[str], sensitive: str
) -> float:
    cls = find(equivalence_classes(dataset, qi_set), key, qi_set)
    column = dataset.column(sensitive)
    h_class = entropy(_counts(column[i] for i in cls.row_indices))
    if h_class == 0.0:
        return 1.0
    h_s = entropy(_counts(column))
    if h_s == 0.0:
        return 1.0
    return _clamp01(1.0 - h_class / h_s)
