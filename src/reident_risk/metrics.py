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

Every metric is read off a :class:`Partition` of the rows. :func:`_key_blocks`
keys its rows, :meth:`Partition.coarsen` derives the partition of a subset of
its quasi-identifiers without reading them again, and
:meth:`Partition._joint_counts` counts its (class, value) pairs.

A rate or class score within 1e-9 of a band boundary (1/4, 1/2, 3/4) is
banded on its exact value, decided from the counts by :mod:`reident_risk.exact`,
which moves a float on the wrong side of the boundary onto the exact side.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter, defaultdict, namedtuple
from collections.abc import Collection, Iterator, Sequence
from functools import reduce
from itertools import chain, compress, count, repeat
from operator import add, iadd, itemgetter, lshift, mul, sub

from .model import _BLOCK_ROWS, Coder, Dataset, InferenceLevel, recode, strings

__all__ = [
    "Partition",
    "DrResult",
    "band",
]


DrResult = namedtuple("DrResult", "qi_set sensitive h_s h_s_given_qi dr inference")
DrResult.__doc__ = """Discrimination rate with the entropies it was derived from: the
``qi_set`` tuple of names and the ``sensitive`` name, the floats H(S) as
``h_s``, H(S|Q) as ``h_s_given_qi`` and the rate ``dr``, and its ``inference``,
an :class:`InferenceLevel`."""


def _entropy(counts: list[int]) -> float:
    """Shannon entropy in bits of a list of positive category counts, summed
    by ``math.fsum``, so in no particular order."""
    total = sum(counts)
    return math.fsum(-p * math.log2(p) for p in [c / total for c in counts])


def band(dr: float) -> InferenceLevel:
    """Map a discrimination rate, an int or float in [0, 1], to its inference
    level; anything else, a bool too, is a ``ValueError``.

    Boundaries belong to the upper band, so 0.25 is already Moderate and
    0.75 is Critical.
    """
    if isinstance(dr, bool) or not isinstance(dr, (int, float)) or not 0.0 <= dr <= 1.0:
        raise ValueError(f"discrimination rate: expected a number in [0, 1], got {dr!r}")
    if dr < 0.25:
        return InferenceLevel.WEAK
    if dr < 0.5:
        return InferenceLevel.MODERATE
    if dr < 0.75:
        return InferenceLevel.SEVERE
    return InferenceLevel.CRITICAL


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


# A rate this near a band boundary has its band decided on the counts, by
# :mod:`reident_risk.exact`, which is imported only then.
_NEAR = 1e-9


def _near(x: float) -> int:
    """``p`` when ``x`` is within ``_NEAR`` of the band boundary p/4, else 0."""
    p = round(4 * x)
    return p if 0 < p < 4 and abs(x - p / 4) <= _NEAR else 0


def _names(qi_set: Sequence[str]) -> tuple[str, ...]:
    names = strings(qi_set)
    if not names:
        raise ValueError("quasi-identifier set must be non-empty")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate attribute in quasi-identifier set: {names!r}")
    return names


def _key_blocks(columns: Sequence[bytes | array], rows: list[int] | None = None) -> Iterator:
    """Per block of rows, or of the rows listed in ``rows``, the key of each row: rows
    agree on every one of two or more columns of codes iff their keys do. The codes are
    copied, a byte at a time with strided slices, into a zeroed ``bytearray`` of at most
    2 KiB, a whole number of words a row: a code takes one byte in ``bytes``, else its
    array's ``itemsize``, and a word is the narrowest of 2, 4 and 8 bytes that holds a
    row's codes, else 8. On every machine a key is the little-endian number of its row's
    bytes, so a class id of ``cw`` bytes and then a code key as ``class_id + code * 256**cw``."""
    big = sys.byteorder == "big"  # where each code's bytes and each word are reversed
    size = len(columns[0]) if rows is None else len(rows)
    layout, width = [], 0  # per column: its codes, their width and byte offset
    for codes in columns:
        code_width = 1 if type(codes) is bytes else codes.itemsize
        layout.append((codes, code_width, width))
        width += code_width
    kind, word = ("H", 2) if width <= 2 else ("I", 4) if width <= 4 else ("Q", 8)
    words = -(-width // word)
    stride = word * words
    step = 8 * _BLOCK_ROWS // stride
    for start in range(0, size, step):
        if rows is None:
            take = itemgetter(slice(start, start + step))
        else:  # itemgetter of one index returns the item, not a tuple
            picked = rows[start : start + step]
            take = itemgetter(*picked) if len(picked) > 1 else lambda codes: (codes[picked[0]],)
        buf = bytearray(stride * min(step, size - start))
        for codes, code_width, offset in layout:
            if code_width == 1:  # bytes, or a tuple of ints below 256
                buf[offset::stride] = take(codes)
                continue
            raw = array(codes.typecode, take(codes)).tobytes()
            for b in range(code_width):  # byte b of the code read little-endian
                buf[offset + b :: stride] = raw[code_width - 1 - b if big else b :: code_width]
        keys = array(kind, buf)
        if big:
            keys.byteswap()
        if words > 1:  # the last word is the most significant
            joined = keys[words - 1 :: words]
            for w in range(words - 2, -1, -1):
                joined = map(add, map(lshift, joined, repeat(64)), keys[w::words])
            keys = list(joined)
        yield keys


# Counts are kept as lists at up to this many classes times values a row. On the
# full partitions of 6,000 and 60,000 kanon_bulk and 500 raw_unique rows and
# their coarsenings (Python 3.11, best of 9), summing lists took 16-107 ns a
# source cell and the key pass 66-162 ns a row, and turning its counts into lists
# 115-128 ns a cell. Summing beats the key pass up to 1.0-5.6 source cells a row
# on kanon_bulk, whose full partition has 0.12-0.24, but only to 0.7 on raw_unique.
_DENSE_CELLS_PER_ROW = 1

# Past this share of rows alone in their class, a Counter counts only the other rows.
# Against counting all, at 0.5-0.7 of 20,000 rows alone, the others in classes of 2, a rate
# took 1.29-1.49 times as long and class_inference 0.66-0.80 times (medians of 15 pairs);
# counting all read +2.7% assess_p50_s and +19% peak_heap_mib on raw_unique (4 pairs).
_LONE_ROWS = 0.65


class Partition:
    """Equivalence classes of the rows under a quasi-identifier set.

    ``class_of[i]`` is the class of row ``i`` and ``sizes[c]`` the size of
    class ``c``; classes are numbered in order of first occurrence. For each
    sensitive attribute the joint (class, value) counts are counted on first
    use and kept, so one partition serves every sensitive attribute; a
    sensitive attribute inside the quasi-identifier set is rejected with
    ``ValueError``. :meth:`coarsen` derives the partition of a subset of the
    quasi-identifiers from the row pass's classes instead of the rows.
    ``class_of`` is ``bytes`` up to 256 classes, else an ``array('H')``, or an
    ``array('I')`` past 65,536; it and ``sizes`` are shared and must not be mutated.
    """

    __slots__ = (
        "dataset", "qi_set", "sizes", "_class_of", "_fine", "_fine_to_class", "_rows", "_joint"
    )

    def __init__(self, dataset: Dataset, qi_set: Sequence[str]):
        if not isinstance(dataset, Dataset):
            raise ValueError(f"dataset: expected a Dataset, got {dataset!r}")
        names = _names(qi_set)
        columns = [dataset.columns[name] for name in names]  # KeyError on unknown names
        if dataset.row_count == 0:
            raise ValueError("no rows: cannot build equivalence classes")
        self.dataset = dataset
        self.qi_set = names
        self._class_of: bytes | array | None
        # A column's codes number its classes as a row pass does.
        _, self._class_of, self.sizes = columns[0]
        if len(columns) > 1:
            coder = Coder()
            for block in _key_blocks([column.codes for column in columns]):
                coder.extend(block)
            self._class_of, self.sizes = coder.done()
        # A coarsening's source, the row pass, and per source class its class here.
        self._fine: Partition | None = None
        self._fine_to_class: bytes | array | None = None
        self._rows: list[int] | None = None  # per class, its last row; set by coarsen
        self._joint: dict[str, dict[int, int]] = {}

    @property
    def class_of(self) -> bytes | array:
        if self._class_of is None:
            self._class_of = recode(self._fine.class_of, self._fine_to_class, len(self.sizes))
        return self._class_of

    def coarsen(self, members: Sequence[str]) -> "Partition":
        """The partition under ``members``, a subset of this partition's
        quasi-identifier set, derived from the row pass's classes without a
        pass over the rows. A coarsening is coarsened by its source, the row
        pass, so only a row pass is ever keyed, and the result is the same.

        Each class maps to a coarse class through one of its rows, and classes
        are visited in class order, so coarse classes are numbered as a row
        pass numbers them. Coarse sizes are sums over the classes; a
        one-member set reads its column's codes and counts. A coarsening's
        ``class_of`` is computed when first read, from the source's. Its
        (class, value) counts are the source's lists summed once per coarse
        class when the source keeps lists (see :meth:`_joint_counts`), else
        counted from the rows and its ``class_of``.
        """
        names = _names(members)
        if names == self.qi_set:
            return self
        for name in names:
            if name not in self.qi_set:
                raise ValueError(f"{name!r} is not in the quasi-identifier set {self.qi_set!r}")
        if self._fine is not None:
            return self._fine.coarsen(names)
        if self._rows is None:  # class ids follow first occurrence
            self._rows = list(dict(zip(self._class_of, count())).values())
        columns = [self.dataset.columns[name].codes for name in names]
        coarse = object.__new__(Partition)
        coarse.dataset = self.dataset
        coarse.qi_set = names
        coarse._fine = self
        coarse._rows = coarse._fine_to_class = None  # for one member, set by _joint_counts
        coarse._joint = {}
        if len(columns) == 1:  # a column's codes number its classes as a row pass does
            coarse._class_of, coarse.sizes = columns[0], self.dataset.columns[names[0]].counts
            return coarse
        # Extended in place a block at a time, so no block outlives the loop.
        keys = reduce(iadd, _key_blocks(columns, self._rows), [])
        ids = dict(zip(dict.fromkeys(keys), count()))  # coarse classes in id order
        coarse._fine_to_class = recode(keys, ids, len(ids))
        coarse._class_of, coarse.sizes = None, [0] * len(ids)
        for c, size in zip(coarse._fine_to_class, self.sizes):
            coarse.sizes[c] += size
        return coarse

    def _joint_counts(self, sensitive: str) -> list[list[int]] | Counter[int]:
        """The row count of each (class, sensitive value) pair: per class, a
        list of its counts in code order, zeros included, when there are at
        most ``_DENSE_CELLS_PER_ROW`` classes times values a row; else a
        ``Counter`` of their keys (see :func:`_key_blocks`), which may leave out
        rows alone in their class. Lists are the source's summed once per class
        when the source keeps lists, else counted from the rows' keys."""
        if sensitive in self.qi_set:
            raise ValueError(f"sensitive attribute {sensitive!r} must not be a quasi-identifier")
        joint = self._joint.get(sensitive)
        if joint is None:
            values, codes, _ = self.dataset.columns[sensitive]
            fine, sizes, rows = self._fine, self.sizes, self.dataset.row_count
            # Up to this many classes, a partition keeps its counts as lists.
            most = _DENSE_CELLS_PER_ROW * rows / len(values)
            if fine is not None and sensitive not in fine.qi_set and len(fine.sizes) <= most:
                if self._fine_to_class is None:  # a one-member coarsening's: its codes
                    self._fine_to_class = recode(fine._rows, self._class_of, len(sizes))
                sources: list[list[list[int]]] = [[] for _ in sizes]
                for c, counts in zip(self._fine_to_class, fine._joint_counts(sensitive)):
                    sources[c].append(counts)
                joint = [list(map(sum, zip(*lists))) for lists in sources]
            elif most < len(sizes) == rows:  # every row alone in its class: no pair
                joint = Counter()
            else:
                class_of, kept = self.class_of, None
                # Lone rows add no pair: past _LONE_ROWS of the rows only the others count.
                if len(sizes) > most and sizes.count(1) > _LONE_ROWS * rows:
                    shared = bytes(map((1).__lt__, sizes))
                    kept = list(compress(count(), map(shared.__getitem__, class_of)))
                joint = Counter()  # updated a block at a time: a chain costs a step a key
                list(map(joint.update, _key_blocks([class_of, codes], kept)))
                if len(sizes) <= most:  # a pair's key is class_id + code * step
                    step = 256 ** memoryview(class_of).itemsize
                    joint = [
                        list(map(joint.get, range(c, c + len(values) * step, step), repeat(0)))
                        for c in range(len(sizes))
                    ]
            self._joint[sensitive] = joint
        return joint

    def _pairs(self, sensitive: str) -> Collection[int]:
        """The count of each (class, value) pair that the counts show."""
        joint = self._joint_counts(sensitive)
        return joint.values() if isinstance(joint, Counter) else [*filter(None, chain(*joint))]

    def _class_counts(self, sensitive: str) -> dict[int, list[int]]:
        """Per class that the counts show, the count of each sensitive value its rows show."""
        joint = self._joint_counts(sensitive)
        if not isinstance(joint, Counter):
            return dict(enumerate(map(list, map(filter, repeat(None), joint))))
        span = 256 ** memoryview(self.class_of).itemsize  # a key's class id is key % span
        per_class: defaultdict[int, list[int]] = defaultdict(list)
        for key, n in joint.items():
            per_class[key % span].append(n)
        return per_class

    def k_anonymity(self) -> int:
        return min(self.sizes)

    def l_diversity(self, sensitive: str) -> int:
        joint = self._joint_counts(sensitive)  # rejects a quasi-identifier
        if min(self.sizes) == 1:  # a class of one row shows one value
            return 1
        if isinstance(joint, Counter):
            return min(map(len, self._class_counts(sensitive).values()))
        return min(map(sub, map(len, joint), map(list.count, joint, repeat(0))))

    def conditional_entropy(self, sensitive: str) -> float:
        """H(sensitive | qi_set), 0.0 when every class is pure, in closed form: n * H(S | Q)
        is sum n_c * log2(n_c) over class sizes less sum n_cv * log2(n_cv) over pairs."""
        pairs, rows = self._pairs(sensitive), self.dataset.row_count
        # The classes the pairs leave out have one row each: rows - sum(pairs).
        if len(pairs) + rows == len(self.sizes) + sum(pairs):
            return 0.0
        h = sum(map(mul, self.sizes, map(math.log2, self.sizes)))
        h = (h - sum(map(mul, pairs, map(math.log2, pairs)))) / rows
        return h if h > 0.0 else 0.0

    def discrimination_rate(self, sensitive: str) -> DrResult:
        counts = self.dataset.columns[sensitive].counts
        h_s = _entropy(counts)
        h_s_given_qi = self.conditional_entropy(sensitive)
        dr = 1.0 if h_s == 0.0 else _clamp01(1.0 - h_s_given_qi / h_s)
        p = _near(dr)
        if p:
            from .exact import decided

            pairs = self._pairs(sensitive)
            dr = decided(dr, p, (self.sizes, pairs, 1), ([self.dataset.row_count], counts, 1))
        return DrResult(self.qi_set, sensitive, h_s, h_s_given_qi, dr, band(dr))

    def class_inference(self, sensitive: str) -> list[float]:
        """Per-class inference score, indexed by class id.

        1 - H(S within the class) / H(S overall), clamped to [0, 1]; a pure
        class scores 1. An impure class implies H(S) > 0.
        """
        counts = self.dataset.columns[sensitive].counts
        h_s, per_class = _entropy(counts), self._class_counts(sensitive)
        scores = [1.0] * len(self.sizes)
        for c, t in per_class.items():
            if len(t) > 1:
                scores[c] = _clamp01(1.0 - _entropy(t) / h_s)
        if any(map(_near, set(scores))):
            from .exact import decided

            n = self.dataset.row_count
            for c, pairs in per_class.items():
                x, size = scores[c], self.sizes[c]
                scores[c] = decided(x, _near(x), ([size], pairs, n), ([n], counts, size))
        return scores
