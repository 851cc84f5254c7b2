"""Exact frequency-based privacy metrics over a Dataset.

All probabilities are empirical frequencies taken from the assessed table
itself; nothing is estimated from an external population. Entropies are in
bits (log base 2). The discrimination rate of a quasi-identifier set Q for
a sensitive attribute S is

    dr = 1 - H(S | Q) / H(S)

which is 0 when Q reveals nothing about S and exactly 1 when every
equivalence class under Q carries a single sensitive value. The same ratio
evaluated inside one equivalence class gives the per-value (per-class)
inference score. A degenerate sensitive attribute with H(S) = 0 is treated
as dr = 1: the constant value is known without looking at Q at all.

Every metric is derived from one :class:`Partition` of the rows, built in a
single pass per quasi-identifier over the integer-coded columns a
:class:`~reident_risk.model.Dataset` stores, so a whole assessment costs time
linear in rows times combinations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import Dataset, InferenceLevel

__all__ = [
    "Partition",
    "DrResult",
    "entropy",
    "band",
]


@dataclass(frozen=True)
class DrResult:
    """Discrimination rate with the entropies it was derived from."""

    qi_set: tuple[str, ...]
    sensitive: str
    h_s: float
    h_s_given_qi: float
    dr: float
    inference: InferenceLevel


def entropy(counts: Iterable[int | float]) -> float:
    """Shannon entropy in bits of a multiset of category counts."""
    values = [float(c) for c in counts]
    if any(c < 0 for c in values):
        raise ValueError("counts must be non-negative")
    total = sum(values)
    if total <= 0:
        raise ValueError("total count must be positive")
    h = 0.0
    for c in values:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


def band(dr: float) -> InferenceLevel:
    """Map a discrimination rate in [0, 1] to its inference level.

    Boundaries belong to the upper band, so 0.25 is already Moderate and
    0.75 is Critical.
    """
    if not 0.0 <= dr <= 1.0:
        raise ValueError(f"discrimination rate {dr!r} out of range [0, 1]")
    if dr < 0.25:
        return InferenceLevel.WEAK
    if dr < 0.5:
        return InferenceLevel.MODERATE
    if dr < 0.75:
        return InferenceLevel.SEVERE
    return InferenceLevel.CRITICAL


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


class Partition:
    """Equivalence classes of the rows under a quasi-identifier set.

    ``class_of[i]`` is the class of row ``i`` and ``sizes[c]`` the size of
    class ``c``; classes are numbered in order of first occurrence. The
    partition is refined one quasi-identifier at a time with the integer key
    ``class_id * cardinality + code``. Per-class tallies of a sensitive
    attribute are counted on first use and kept, so one partition serves
    every sensitive attribute; a sensitive attribute inside the
    quasi-identifier set is rejected with ``ValueError``. All lists are
    shared and must not be mutated.
    """

    __slots__ = ("dataset", "qi_set", "class_of", "sizes", "_tallies")

    def __init__(self, dataset: Dataset, qi_set: Sequence[str]):
        names = tuple(qi_set)
        if not names:
            raise ValueError("quasi-identifier set must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute in quasi-identifier set: {names!r}")
        columns = [dataset.columns[name] for name in names]  # KeyError on unknown names
        if dataset.row_count == 0:
            raise ValueError("no rows: cannot build equivalence classes")
        class_of = columns[0].codes
        for values, codes, _ in columns[1:]:
            cardinality = len(values)
            numbering: dict[int, int] = {}
            class_of = [
                numbering.setdefault(c * cardinality + v, len(numbering))
                for c, v in zip(class_of, codes)
            ]
        sizes = list(Counter(class_of).values())  # ids follow first occurrence, as Counter does
        self.dataset = dataset
        self.qi_set = names
        self.class_of = class_of
        self.sizes = sizes
        self._tallies: dict[str, list[list[int]]] = {}

    def tallies(self, sensitive: str) -> list[list[int]]:
        """Per class, the counts of each sensitive value it holds, in the
        order the class's rows first show the values."""
        per_class = self._tallies.get(sensitive)
        if per_class is None:
            if sensitive in self.qi_set:
                raise ValueError(
                    f"sensitive attribute {sensitive!r} must not be a quasi-identifier"
                )
            values, codes, _ = self.dataset.columns[sensitive]
            cardinality = len(values)
            per_class = [[] for _ in self.sizes]
            joint = Counter(c * cardinality + v for c, v in zip(self.class_of, codes))
            for key, count in joint.items():
                per_class[key // cardinality].append(count)
            self._tallies[sensitive] = per_class
        return per_class

    def k_anonymity(self) -> int:
        return min(self.sizes)

    def l_diversity(self, sensitive: str) -> int:
        return min(map(len, self.tallies(sensitive)))

    def conditional_entropy(self, sensitive: str) -> float:
        """H(sensitive | qi_set), classes weighted by frequency and summed in
        class order. A pure class adds exactly 0.0 and is skipped."""
        n = len(self.class_of)
        h = 0.0
        for size, counts in zip(self.sizes, self.tallies(sensitive)):
            if len(counts) > 1:
                h += (size / n) * entropy(counts)
        return h

    def discrimination_rate(self, sensitive: str) -> DrResult:
        h_s = entropy(self.dataset.columns[sensitive].counts)
        h_s_given_qi = self.conditional_entropy(sensitive)
        dr = 1.0 if h_s == 0.0 else _clamp01(1.0 - h_s_given_qi / h_s)
        return DrResult(
            qi_set=self.qi_set,
            sensitive=sensitive,
            h_s=h_s,
            h_s_given_qi=h_s_given_qi,
            dr=dr,
            inference=band(dr),
        )

    def class_inference(self, sensitive: str) -> list[float]:
        """Per-class inference score, indexed by class id.

        1 - H(S within the class) / H(S overall), clamped to [0, 1]; a pure
        class scores 1. An impure class implies H(S) > 0.
        """
        h_s = entropy(self.dataset.columns[sensitive].counts)
        return [
            1.0 if len(counts) == 1 else _clamp01(1.0 - entropy(counts) / h_s)
            for counts in self.tallies(sensitive)
        ]

